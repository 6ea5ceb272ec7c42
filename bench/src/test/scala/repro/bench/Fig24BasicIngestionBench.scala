package repro.bench

import repro.SparkSpec
import repro.cluster._
import repro.core._
import repro.data.TweetData

/** Figure 24 — basic (no-UDF) ingestion, 10 M tweets over 1–24 nodes in the
  * paper. Here: (a) the cluster simulation sweep with the paper's 24-node
  * refresh-rate anchors, and (b) a real local measurement of the decoupled
  * framework's per-batch overhead (dynamic at three batch sizes vs. a
  * single-shot static baseline).
  */
class Fig24BasicIngestionBench extends SparkSpec {

  test("Fig 24 (sim): throughput vs cluster size for all four variants") {
    BenchUtil.banner("Fig 24 (sim): basic ingestion throughput (rec/s) vs cluster size")
    BenchUtil.row("nodes", "static", "balStatic", "dyn1X", "dyn4X", "dyn16X", "balDyn16X")
    for (n <- Seq(1, 2, 4, 6, 9, 12, 18, 24)) {
      BenchUtil.row(n,
        ClusterSim.staticThroughput(n, 1),
        ClusterSim.staticThroughput(n, n),
        ClusterSim.dynamicThroughput(n, 1, 420),
        ClusterSim.dynamicThroughput(n, 1, 1680),
        ClusterSim.dynamicThroughput(n, 1, 6720),
        ClusterSim.dynamicThroughput(n, n, 6720))
    }
    val rates = Seq(420L, 1680L, 6720L).map(b => ClusterSim.refreshRate(24, 1, b))
    println(f"24-node refresh rates (jobs/s): 1X=${rates(0)}%.1f 4X=${rates(1)}%.1f 16X=${rates(2)}%.1f " +
      "(paper: 68 / 27 / 10)")
    assert(math.abs(rates(0) - 68) / 68 < 0.15)
    assert(math.abs(rates(1) - 27) / 27 < 0.15)
  }

  test("Fig 24 (local): decoupled-framework overhead vs single-shot ingestion") {
    val n = 50000
    BenchUtil.banner(s"Fig 24 (local): $n tweets, no UDF — dynamic framework vs one-shot")
    BenchUtil.row("config", "batches", "elapsed ms", "throughput rec/s")

    // Unmeasured warm-up of both measured paths, one-shot and framework, so
    // the first measured config doesn't pay JIT costs.
    val stores = RefStoreSet.create(spark)
    spark.createDataFrame(TweetData.localTweets(5000)).collect()
    BenchUtil.run(spark, 5000, BenchUtil.batchSizes.head, NoEnrichment, Dynamic, stores)

    // One-shot "static" baseline: the whole feed as a single insert.
    val t0 = System.nanoTime()
    val df = spark.createDataFrame(TweetData.localTweets(n))
    val staticCount = df.collect().length
    val staticMs = (System.nanoTime() - t0) / 1000000
    BenchUtil.row("one-shot static", 1, staticMs, staticCount * 1000.0 / staticMs)

    val results = BenchUtil.batchSizes.map { b =>
      val r = BenchUtil.run(spark, n, b, NoEnrichment, Dynamic, stores)
      BenchUtil.row(s"dynamic ${BenchUtil.batchLabel(b)} ($b/batch)", r.batches, r.elapsedMs, r.throughputRecSec)
      r
    }
    assert(results.forall(_.records == n))
    // Larger batches amortize per-batch overhead (allowing generous noise).
    assert(results.last.throughputRecSec > results.head.throughputRecSec * 0.8,
      "16X should not be materially slower than 1X")
  }
}
