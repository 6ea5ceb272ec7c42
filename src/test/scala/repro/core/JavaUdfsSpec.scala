package repro.core

import repro.{SparkSpec, TestRefs}
import repro.data.TweetData

/** The Java (per-record, preloaded-state) evaluation model must agree
  * row-for-row with the declarative SQL++ analog on a frozen reference
  * snapshot — the two implementations cross-validate each other.
  */
class JavaUdfsSpec extends SparkSpec {

  private lazy val refs: Refs = TestRefs.small(spark).snapshot
  private lazy val tweets = TweetData.tweets(spark, 150)

  private val comparable = Seq(
    "tweet_safety_check", "high_risk_check", "safety_rating",
    "religious_population", "largest_religions", "fuzzy_suspects",
    "nearby_monuments")

  for (name <- comparable) {
    test(s"Java UDF '$name' matches the SQL++ analog") {
      val sqlOut = Enrichments.byName(name)(tweets, refs)
      val javaOut = JavaUdfs.compile(name, refs).apply(tweets)
      val cols = sqlOut.columns.toSet.intersect(javaOut.columns.toSet).toSeq.sorted
      val s = sqlOut.select(cols.map(org.apache.spark.sql.functions.col): _*)
        .orderBy("id").collect().map(_.toString).toSeq
      val j = javaOut.select(cols.map(org.apache.spark.sql.functions.col): _*)
        .orderBy("id").collect().map(_.toString).toSeq
      assert(s == j)
    }
  }

  test("compile rejects unsupported UDF names") {
    intercept[IllegalArgumentException] { JavaUdfs.compile("tweet_context", refs) }
  }

  test("supported set matches what compile accepts") {
    JavaUdfs.supported.foreach(n => JavaUdfs.compile(n, refs)) // must not throw
  }

  test("a compiled Java UDF holds its state across batches (stale by design)") {
    val stores = TestRefs.small(spark)
    val compiled = JavaUdfs.compile("safety_rating", stores.staticRefs)
    val before = compiled.apply(tweets).select("id", "safety_rating")
      .collect().map(_.toString).toSeq
    // Mutate the store: the already-compiled UDF must not see it.
    stores.safetyRatings.upsertProducts(
      TweetData.countries.map(c => repro.data.SafetyRating(c, "STALE-TEST")))
    val after = compiled.apply(tweets).select("id", "safety_rating")
      .collect().map(_.toString).toSeq
    assert(before == after)
  }

  test("re-compiling after an upsert sees the new reference data") {
    val stores = TestRefs.small(spark)
    stores.safetyRatings.upsertProducts(
      TweetData.countries.map(c => repro.data.SafetyRating(c, "FRESH")))
    val recompiled = JavaUdfs.compile("safety_rating", stores.snapshot)
    val ratings = recompiled.apply(tweets).select("safety_rating")
      .collect().map(_.getString(0)).toSet
    assert(ratings == Set("FRESH"))
  }

  test("compile starts no Spark job, on static refs or on a snapshot after upserts") {
    val stores = TestRefs.small(spark)
    assert(jobsStartedBy(JavaUdfs.supported.foreach(JavaUdfs.compile(_, stores.staticRefs))) == 0)
    stores.all.foreach(s => s.upsert(s.initial.frame.collect().take(1).toSeq))
    val refs = stores.snapshot
    assert(jobsStartedBy(JavaUdfs.supported.foreach(JavaUdfs.compile(_, refs))) == 0)
  }
}
