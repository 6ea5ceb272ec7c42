package repro.bench

import repro.SparkSpec
import repro.cluster._
import repro.core._

/** Figure 31 — throughput vs cluster size (6→24 nodes, batch 6720) for the
  * four most complex UDFs plus the hint-forced Naive Nearby Monuments.
  * The cluster sweep is simulated; the indexed-vs-naive contrast is also
  * measured for real on local Spark.
  */
class Fig31ClusterScaleBench extends SparkSpec {

  test("Fig 31 (sim): complex-UDF throughput vs cluster size") {
    BenchUtil.banner("Fig 31 (sim): throughput (rec/s) vs cluster size, batch 6720")
    val udfs = Seq(UdfModels.nearbyMonuments, UdfModels.naiveNearbyMonuments,
      UdfModels.suspiciousNames, UdfModels.tweetContext, UdfModels.worrisomeTweets)
    BenchUtil.row(("nodes" +: udfs.map(_.name)): _*)
    val sizes = Seq(6, 9, 12, 15, 18, 21, 24)
    val table = sizes.map { nn =>
      val ts = udfs.map(u => ClusterSim.dynamicThroughput(nn, 1, 6720, Some(u)))
      BenchUtil.row((nn.toString +: ts.map(t => f"$t%.0f")): _*)
      ts
    }
    // Monotone growth for the complex UDFs; index join levels off relative
    // to naive's growth factor.
    for (i <- udfs.indices) {
      val col = table.map(_(i))
      assert(col == col.sorted, s"${udfs(i).name} not monotone: $col")
    }
    val idxGain = table.last.head / table.head.head
    val naiveGain = table.last(1) / table.head(1)
    assert(naiveGain > idxGain, "naive join must out-scale the broadcast-capped index join")
  }

  test("Fig 31 (local): indexed vs naive spatial join on real Spark") {
    BenchUtil.banner("Fig 31 (local): Nearby Monuments indexed vs naive, batch 1680")
    val stores = RefStoreSet.create(spark)
    val variants = Seq("nearby_monuments", "naive_nearby_monuments")
    def rate(udf: String): Double =
      BenchUtil.run(spark, 1680, 1680, SqlEnrichment(udf), Dynamic, stores).throughputRecSec
    // One untimed round on the same stores, so that neither timed variant
    // pays the JIT and codegen warm-up or the first build of the stores'
    // frames; then rounds that alternate which variant runs first.
    variants.foreach(rate)
    val rounds = (0 until 6).map(r => (if (r % 2 == 0) variants else variants.reverse).map(u => u -> rate(u)).toMap)
    val idx = BenchUtil.median(rounds.map(_("nearby_monuments")))
    val naive = BenchUtil.median(rounds.map(_("naive_nearby_monuments")))
    BenchUtil.row("config", s"median throughput rec/s of ${rounds.size} warm rounds")
    BenchUtil.row("indexed (gridJoin)", idx)
    BenchUtil.row("naive (cross+filter)", naive)
    assert(idx > naive,
      "the grid index must beat the naive join at reference scale")
  }
}
