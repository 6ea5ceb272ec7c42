package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.execution.joins.{BaseJoinExec, BroadcastHashJoinExec, CartesianProductExec, ShuffledHashJoinExec, SortMergeJoinExec}

import repro.{AdHocJob, SparkSpec, TestRefs}
import repro.data.{SafetyRating, TweetData}

/** Join strategies of the computing job under the test session's settings
  * (broadcast threshold off, 64 shuffle partitions): the explicit hints on
  * the reference side must keep every enrichment off shuffled joins.
  */
class JoinPlanSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private lazy val stores = {
    val s = TestRefs.small(spark)
    s.safetyRatings.upsertProducts((0 until 50).map(i => SafetyRating(f"J$i%03d", "A")))
    s
  }

  /** The final physical plan, after the query has run. */
  private def executed(df: DataFrame): SparkPlan = {
    df.collect()
    df.queryExecution.executedPlan
  }

  test("safety_rating plans one broadcast hash join and no shuffle") {
    val batch = TweetData.tweets(spark, 200)
    for (refs <- Seq(stores.staticRefs, stores.snapshot)) {
      val plan = executed(Enrichments.byName("safety_rating")(batch, refs))
      assert(collect(plan) { case j: BroadcastHashJoinExec => j }.size == 1, plan.treeString)
      assert(collect(plan) { case e: ShuffleExchangeExec => e }.isEmpty, plan.treeString)
    }
  }

  test("ad-hoc SQL plans the same joins as the predeployed job") {
    val batch = TweetData.tweets(spark, 100)
    def joins(plan: SparkPlan): Seq[String] =
      collect(plan) { case j: BaseJoinExec => j.getClass.getSimpleName }
    for (name <- Seq("safety_rating", "religious_population")) {
      val job = PreparedJob(spark, SqlEnrichment(name), Dynamic, stores)
      job(TweetData.localTweets(100))
      val pre = job.plan
      val ad = executed(AdHocJob(spark, name, stores)(batch))
      assert(joins(ad) == joins(pre), s"$name\n${ad.treeString}\n${pre.treeString}")
      assert(joins(pre) == Seq("BroadcastHashJoinExec"), name)
    }
  }

  // us_safety_check reads no reference data and joins nothing.
  for (name <- Enrichments.byName.keys.toSeq.sorted if name != "us_safety_check") {
    test(s"$name plans no sort-merge, shuffled hash or cartesian join") {
      val plan = executed(Enrichments.byName(name)(TweetData.tweets(spark, 60), stores.snapshot))
      val shuffled = collect(plan) {
        case j @ (_: SortMergeJoinExec | _: ShuffledHashJoinExec | _: CartesianProductExec) => j
      }
      assert(shuffled.isEmpty, plan.treeString)
    }
  }
}
