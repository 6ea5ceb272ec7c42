package repro.bench

import repro.{AdHocJob, SparkSpec}
import repro.core._
import repro.data.TweetData

/** §5.1 — predeployed (prepared once) vs ad-hoc (re-parse per invocation)
  * computing jobs: the per-invocation overhead the predeployed-job
  * technique removes.
  */
class PredeployedJobBench extends SparkSpec {

  test("predeployed vs ad-hoc invocation cost over 40 batches") {
    val stores = RefStoreSet.create(spark)
    val batches = (0 until 40).map(i => TweetData.localTweets(420, seed = i))
    val frames = batches.map(spark.createDataFrame(_))

    def msPerBatch(invoke: Int => Unit): Double = {
      val t0 = System.nanoTime()
      batches.indices.foreach(invoke)
      (System.nanoTime() - t0) / 1e6 / batches.size
    }

    // Warm both paths once so JIT/codegen caches don't bias the comparison.
    val predeployed = PreparedJob(spark, SqlEnrichment("safety_rating"), Dynamic, stores)
    val adhoc = AdHocJob(spark, "safety_rating", stores)
    // Both paths end in the prepared job's collector, at the encoded rows
    // of the executed plan, so the gap is parsing, analysis and planning,
    // not a deserializer or a way of collecting that only one side pays.
    def runAdhoc(i: Int): Unit = PreparedJob.collect(adhoc(frames(i)).queryExecution.executedPlan)
    predeployed(batches.head)
    runAdhoc(0)

    val adhocMs = msPerBatch(runAdhoc)
    val preMs = msPerBatch(i => predeployed(batches(i)))

    BenchUtil.banner("Predeployed vs ad-hoc computing jobs (ms per invocation, 420-record batches)")
    BenchUtil.row("path", "ms/invocation")
    BenchUtil.row("predeployed", preMs)
    BenchUtil.row("ad-hoc (re-parse SQL)", adhocMs)
    println(f"per-invocation overhead removed: ${adhocMs - preMs}%.1f ms")

    // The predeployed path must not be slower beyond noise.
    assert(preMs < adhocMs * 1.25, s"predeployed=$preMs adhoc=$adhocMs")
  }
}
