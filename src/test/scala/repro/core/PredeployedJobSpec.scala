package repro.core

import org.apache.spark.sql.Row

import repro.{AdHocJob, SparkSpec, TestRefs}
import repro.data.{Tweet, TweetData}

/** Predeployed vs. ad-hoc computing jobs: identical results and parameter
  * rebinding across invocations.
  */
class PredeployedJobSpec extends SparkSpec {

  private lazy val stores = TestRefs.small(spark)

  /** The named SQL enrichment as a predeployed job that returns its rows
    * decoded.
    */
  private def predeployed(name: String, s: RefStoreSet = stores): Seq[Tweet] => Seq[Row] = {
    val job = PreparedJob(spark, SqlEnrichment(name), Dynamic, s)
    val out = decoder(job.schema)
    batch => out(job(batch))
  }

  /** The named columns of `rows` as strings, ordered by id. */
  private def columns(rows: Seq[Row], names: String*): Seq[String] =
    rows.map(r => Row.fromSeq(names.map(r.getAs[Any]))).sortBy(_.getLong(0)).map(_.toString)

  test("predeployed and ad-hoc jobs return identical rows") {
    val batch = TweetData.localTweets(80)
    val pre = predeployed("safety_rating")
    val ad = AdHocJob(spark, "safety_rating", stores)
    val a = columns(pre(batch), "id", "safety_rating")
    val b = ad(spark.createDataFrame(batch)).select("id", "safety_rating").orderBy("id").collect().map(_.toString).toSeq
    assert(a == b)
  }

  test("predeployed and ad-hoc agree for the group-by enrichment too") {
    val batch = TweetData.localTweets(60)
    val pre = predeployed("religious_population")
    val ad = AdHocJob(spark, "religious_population", stores)
    val a = columns(pre(batch), "id", "religious_population")
    val b = ad(spark.createDataFrame(batch)).select("id", "religious_population").orderBy("id")
      .collect().map(_.toString).toSeq
    assert(a == b)
  }

  test("a predeployed job rebinds parameters: different batches give different results") {
    val pre = predeployed("safety_rating")
    val a = pre(TweetData.localTweets(10, seed = 1)).map(_.getAs[Long]("id")).toSet
    val b = pre(TweetData.localTweets(20, seed = 2)).map(_.getAs[Long]("id")).toSet
    assert(a.size == 10 && b.size == 20)
  }

  test("a predeployed job picks up reference snapshots through its provider") {
    val local = TestRefs.small(spark)
    val pre = predeployed("safety_rating", local)
    val batch = TweetData.localTweets(30)
    pre(batch)
    local.safetyRatings.upsertProducts(TweetData.countries.map(repro.data.SafetyRating(_, "REBOUND")))
    val ratings = pre(batch).map(_.getAs[String]("safety_rating")).toSet
    assert(ratings == Set("REBOUND"))
  }

  test("ad-hoc path rejects enrichments without SQL text") {
    intercept[IllegalArgumentException] {
      AdHocJob(spark, "tweet_context", stores)
    }
  }
}
