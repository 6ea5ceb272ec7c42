package repro.feed

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.execution.LocalTableScanExec

import repro.{SparkSpec, TestRefs}
import repro.core.{Dynamic, IngestionFramework, NoEnrichment, PreparedJob}
import repro.data.{AttackEvent, Tweet, TweetData}
import repro.refstore.ReferenceStore

/** Frames built by [[LocalFrames]] keep their rows out of the logical plan,
  * plan to one local table scan, and hold exactly what
  * `spark.createDataFrame` of the same input holds.
  */
class LocalFramesSpec extends SparkSpec {

  private def assertOneLocalScan(df: DataFrame): Unit = {
    val logical = df.queryExecution.optimizedPlan
    assert(logical.collect { case r: LocalRelation => r }.isEmpty, logical.treeString)
    val physical = df.queryExecution.executedPlan
    assert(physical.isInstanceOf[LocalTableScanExec], physical.treeString)
  }

  /** Same names, types and nullability, and the same rows (any order). */
  private def assertSameAs(df: DataFrame, expected: DataFrame): Unit = {
    assert(df.schema == expected.schema)
    def rows(d: DataFrame) = d.collect().toSeq.sortBy(_.toString)
    assert(rows(df) == rows(expected))
  }

  test("a 2000-tweet batch frame is one local scan equal to createDataFrame's") {
    val tweets = TweetData.localTweets(2000)
    val toRow = ExpressionEncoder[Tweet]().createSerializer()
    val df = LocalFrames.ofInternalRows(spark, PreparedJob.BatchSchema, tweets.map(toRow(_).copy()).toArray)
    assertOneLocalScan(df)
    assertSameAs(df, spark.createDataFrame(tweets))
    assert(df.collect().map(_.getTimestamp(5)).toSeq == tweets.map(_.created_at))
  }

  test("a snapshot of a store with a delta is one local scan equal to createDataFrame's") {
    val base = TweetData.localAttackEvents(40)
    val store = ReferenceStore(spark, "AttackEvents", base, "attack_record_id")
    val upserts = Seq(
      AttackEvent(base.head.attack_record_id, new java.sql.Timestamp(0L), 1.0, 2.0, "R1"),
      AttackEvent("NEW-1", new java.sql.Timestamp(1234567890123L), 3.0, 4.0, "R2"))
    store.upsertProducts(upserts)
    val snap = store.snapshot()
    assertOneLocalScan(snap)
    assertSameAs(snap, spark.createDataFrame(base.tail ++ upserts))
  }

  test("every version-0 snapshot, Static included, is one local scan equal to createDataFrame's") {
    val stores = TestRefs.small(spark)
    val expected: Seq[(ReferenceStore, DataFrame)] = Seq(
      stores.sensitiveWords -> spark.createDataFrame(TweetData.localSensitiveWords(60, 11)),
      stores.safetyRatings -> spark.createDataFrame(TweetData.localSafetyRatings(300, 13)),
      stores.religiousPopulations -> spark.createDataFrame(TweetData.localReligiousPopulations(400, 17)),
      stores.suspects -> spark.createDataFrame(TweetData.localSuspects(40, 19)),
      stores.monuments -> spark.createDataFrame(TweetData.localMonuments(500, 23)),
      stores.religiousBuildings -> spark.createDataFrame(TweetData.localReligiousBuildings(120, 29)),
      stores.facilities -> spark.createDataFrame(TweetData.localFacilities(300, 31)),
      stores.sensitiveNames -> spark.createDataFrame(TweetData.localSuspects(400, 37)),
      stores.districts -> spark.createDataFrame(TweetData.localDistricts(50)),
      stores.averageIncomes -> spark.createDataFrame(TweetData.localAverageIncomes(50, 41)),
      stores.residents -> spark.createDataFrame(TweetData.localResidents(800, 43)),
      stores.attackEvents -> spark.createDataFrame(TweetData.localAttackEvents(150, 47)))
    assert(expected.map(_._1) == stores.all)
    for ((store, df) <- expected) withClue(store.name) {
      assert(store.initial.frame eq store.snapshot())
      assertOneLocalScan(store.initial.frame)
      assertSameAs(store.initial.frame, df)
    }
  }

  test("StorageSink.toDf is one local scan, and run leaves no frame pending") {
    val tweets = TweetData.localTweets(2000)
    val r = IngestionFramework.run(spark, tweets, 500, NoEnrichment, Dynamic, TestRefs.small(spark))
    assert(LocalFrames.pending == 0)
    val stored = r.sink.toDf(spark)
    assert(LocalFrames.pending == 0)
    assertOneLocalScan(stored)
    assertSameAs(stored, spark.createDataFrame(tweets))
  }
}
