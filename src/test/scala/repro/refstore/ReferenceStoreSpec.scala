package repro.refstore

import org.apache.spark.sql.Row
import org.apache.spark.sql.catalyst.expressions.{In, InSet}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.execution.{FilterExec, LocalTableScanExec, SparkPlan, UnionExec}
import org.apache.spark.sql.execution.exchange.Exchange

import repro.{SparkSpec, TestRefs}
import repro.data.{SafetyRating, TweetData}

/** UPSERT/snapshot semantics of the LSM-analog reference store. */
class ReferenceStoreSpec extends SparkSpec {

  private def freshStore(n: Int = 50): ReferenceStore =
    ReferenceStore(spark, "SafetyRatings", TweetData.localSafetyRatings(n), "country_code")

  test("initial snapshot equals the base data") {
    val s = freshStore(40)
    assert(s.snapshot().count() == 40)
    assert(s.version == 0)
    assert(s.deltaSize == 0)
  }

  test("snapshot() is current.frame, at version 0 and after an upsert") {
    val s = freshStore()
    assert(s.snapshot() eq s.initial.frame)
    assert(s.snapshot() eq s.current.frame)
    s.upsertProducts(Seq(SafetyRating("A0", "A")))
    assert(s.snapshot() eq s.current.frame)
    assert(!(s.snapshot() eq s.initial.frame))
  }

  test("upsert of a new key inserts") {
    val s = freshStore(10)
    s.upsertProducts(Seq(SafetyRating("ZZ", "A")))
    assert(s.snapshot().count() == 11)
    assert(s.version == 1)
  }

  test("upsert of an existing key replaces") {
    val s = freshStore(10)
    val firstKey = s.initial.frame.select("country_code").head().getString(0)
    s.upsertProducts(Seq(SafetyRating(firstKey, "ZNEW")))
    val snap = s.snapshot()
    assert(snap.count() == 10)
    val updated = snap.where(s"country_code = '$firstKey'").select("safety_rating").head().getString(0)
    assert(updated == "ZNEW")
  }

  test("last writer wins within the delta") {
    val s = freshStore(5)
    s.upsertProducts(Seq(SafetyRating("QQ", "A")))
    s.upsertProducts(Seq(SafetyRating("QQ", "B")))
    val v = s.snapshot().where("country_code = 'QQ'").select("safety_rating").head().getString(0)
    assert(v == "B")
    assert(s.deltaSize == 1)
  }

  test("version increments per upsert call") {
    val s = freshStore(5)
    s.upsertProducts(Seq(SafetyRating("A1", "A")))
    s.upsertProducts(Seq(SafetyRating("A2", "A"), SafetyRating("A3", "A")))
    assert(s.version == 2)
  }

  test("snapshot is cached per version") {
    val s = freshStore(5)
    s.upsertProducts(Seq(SafetyRating("B1", "A")))
    assert(s.snapshot() eq s.snapshot())
  }

  test("snapshot changes identity after an upsert") {
    val s = freshStore(5)
    val s1 = s.snapshot()
    s.upsertProducts(Seq(SafetyRating("C1", "A")))
    assert(!(s.snapshot() eq s1))
  }

  test("initial.frame never sees updates; staticRefs serves it") {
    val s = freshStore(5)
    s.upsertProducts(Seq(SafetyRating("D1", "A")))
    assert(s.initial.frame.count() == 5)
    assert(s.snapshot().count() == 6)
    val stores = TestRefs.small(spark)
    stores.all.foreach(st => st.upsert(st.initial.frame.collect().take(1).toSeq))
    val static = stores.staticRefs.productIterator.toSeq
    assert(static.size == stores.all.size)
    for ((frame, st) <- static.zip(stores.all)) withClue(st.name) {
      assert(st.version == 1)
      assert(frame.asInstanceOf[AnyRef] eq st.initial.frame)
    }
  }

  test("an earlier snapshot plan is immune to later upserts") {
    val s = freshStore(5)
    s.upsertProducts(Seq(SafetyRating("E1", "A")))
    val snapAfterFirst = s.snapshot()
    s.upsertProducts(Seq(SafetyRating("E2", "A")))
    assert(snapAfterFirst.count() == 6)
    assert(s.snapshot().count() == 7)
    // A version held across two later upserts builds its frame from its own rows.
    val held = s.current
    s.upsertProducts(Seq(SafetyRating("E1", "B"), SafetyRating("E3", "A")))
    s.upsertProducts(Seq(SafetyRating("E4", "A")))
    val keys = held.frame.collect().map(r => r.getString(0) -> r.getString(1)).toMap
    assert(keys.size == 7 && keys("E1") == "A" && keys.contains("E2"))
    assert(!keys.contains("E3") && !keys.contains("E4"))
    assert(held.frame eq held.frame)
    assert(s.snapshot().count() == 9)
  }

  test("upsert rejects rows of wrong arity") {
    val s = freshStore(5)
    intercept[IllegalArgumentException] { s.upsert(Seq(Row("only-one-field"))) }
  }

  test("an upsert with one bad row leaves the store unchanged") {
    val s = freshStore(5)
    s.upsertProducts(Seq(SafetyRating("F1", "A")))
    val before = s.snapshot().collect().toSet
    intercept[IllegalArgumentException] {
      s.upsert(Seq(Row("F2", "B"), Row("F1", "C"), Row("only-one-field"), Row("F3", "D")))
    }
    assert(s.version == 1)
    assert(s.deltaSize == 1)
    assert(s.snapshot().collect().toSet == before)
  }

  test("an upsert of a wrongly typed row is rejected and the store keeps working") {
    val s = freshStore(5)
    val before = s.snapshot().collect().toSet
    val e = intercept[IllegalArgumentException] { s.upsert(Seq(Row("X1", 5))) }
    assert(e.getMessage.contains("SafetyRatings"), e.getMessage)
    assert(s.version == 0)
    assert(s.deltaSize == 0)
    assert(s.snapshot().collect().toSet == before)
    s.upsert(Seq(Row("X1", "B")))
    assert(s.version == 1)
    assert(s.snapshot().collect().toSet == before + Row("X1", "B"))
  }

  test("the snapshot plan is one local relation whatever the delta size") {
    def plansAfter(freshKeys: Int): (LogicalPlan, SparkPlan) = {
      val s = freshStore(20)
      s.upsertProducts((0 until freshKeys).map(i => SafetyRating(f"P$i%05d", "A")))
      val qe = s.snapshot().queryExecution
      assert(s.snapshot().count() == 20 + freshKeys)
      (qe.optimizedPlan, qe.executedPlan)
    }
    val small = plansAfter(10)
    val large = plansAfter(1000)
    for ((logical, physical) <- Seq(small, large)) {
      assert(logical.children.isEmpty, logical.treeString)
      assert(logical.flatMap(_.expressions.flatMap(_.collect { case e @ (_: In | _: InSet) => e })).isEmpty)
      val leaves = physical.collectLeaves()
      assert(leaves.size == 1 && leaves.head.isInstanceOf[LocalTableScanExec], physical.treeString)
      assert(physical.collect { case p @ (_: FilterExec | _: UnionExec | _: Exchange) => p }.isEmpty,
        physical.treeString)
    }
    assert(small._1.output.map(a => (a.name, a.dataType)) == large._1.output.map(a => (a.name, a.dataType)))
  }

  test("bulk upsert of 500 rows merges correctly") {
    val s = freshStore(100)
    val fresh = (0 until 500).map(i => SafetyRating(f"NEW$i%03d", "Z"))
    s.upsertProducts(fresh)
    assert(s.snapshot().count() == 600)
    assert(s.snapshot().where("safety_rating = 'Z'").count() == 500)
  }

  test("concurrent upserts from two threads all land") {
    val s = freshStore(10)
    val t1 = new Thread(() => (0 until 50).foreach(i => s.upsertProducts(Seq(SafetyRating(f"T1$i%03d", "A")))))
    val t2 = new Thread(() => (0 until 50).foreach(i => s.upsertProducts(Seq(SafetyRating(f"T2$i%03d", "B")))))
    t1.start(); t2.start(); t1.join(); t2.join()
    assert(s.snapshot().count() == 110)
    assert(s.version == 100)
  }

  test("snapshot reads are safe while an updater thread runs") {
    val s = freshStore(20)
    @volatile var failure: Option[Throwable] = None
    val updater = new Thread(() =>
      try (0 until 30).foreach { i =>
        s.upsertProducts(Seq(SafetyRating(f"U$i%03d", "A")))
        Thread.sleep(1)
      } catch { case t: Throwable => failure = Some(t) })
    updater.start()
    (0 until 10).foreach { _ =>
      val c = s.snapshot().count()
      assert(c >= 20 && c <= 50)
    }
    updater.join()
    assert(failure.isEmpty)
    assert(s.snapshot().count() == 50)
  }
}
