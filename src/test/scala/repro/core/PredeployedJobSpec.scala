package repro.core

import repro.{SparkSpec, TestRefs}
import repro.data.TweetData

/** Predeployed vs. ad-hoc computing jobs: identical results and parameter
  * rebinding across invocations.
  */
class PredeployedJobSpec extends SparkSpec {

  private lazy val stores = TestRefs.small(spark)

  private def predeployed(name: String, s: RefStoreSet = stores) =
    PredeployedJob.predeployed(SqlEnrichment(name), Dynamic, s)

  test("predeployed and ad-hoc jobs return identical rows") {
    val batch = TweetData.tweets(spark, 80)
    val pre = predeployed("safety_rating")
    val ad = PredeployedJob.adhoc(spark, "safety_rating", stores)
    val a = pre(batch).select("id", "safety_rating").orderBy("id").collect().map(_.toString).toSeq
    val b = ad(batch).select("id", "safety_rating").orderBy("id").collect().map(_.toString).toSeq
    assert(a == b)
  }

  test("predeployed and ad-hoc agree for the group-by enrichment too") {
    val batch = TweetData.tweets(spark, 60)
    val pre = predeployed("religious_population")
    val ad = PredeployedJob.adhoc(spark, "religious_population", stores)
    val a = pre(batch).select("id", "religious_population").orderBy("id").collect().map(_.toString).toSeq
    val b = ad(batch).select("id", "religious_population").orderBy("id").collect().map(_.toString).toSeq
    assert(a == b)
  }

  test("a predeployed job rebinds parameters: different batches give different results") {
    val pre = predeployed("safety_rating")
    val a = pre(TweetData.tweets(spark, 10, seed = 1)).select("id").collect().map(_.getLong(0)).toSet
    val b = pre(TweetData.tweets(spark, 20, seed = 2)).select("id").collect().map(_.getLong(0)).toSet
    assert(a.size == 10 && b.size == 20)
  }

  test("a predeployed job picks up reference snapshots through its provider") {
    val local = TestRefs.small(spark)
    val pre = predeployed("safety_rating", local)
    val batch = TweetData.tweets(spark, 30)
    pre(batch).count()
    local.safetyRatings.upsertProducts(TweetData.countries.map(repro.data.SafetyRating(_, "REBOUND")))
    val ratings = pre(batch).select("safety_rating").collect().map(_.getString(0)).toSet
    assert(ratings == Set("REBOUND"))
  }

  test("ad-hoc path rejects enrichments without SQL text") {
    intercept[IllegalArgumentException] {
      PredeployedJob.adhoc(spark, "tweet_context", stores)
    }
  }
}
