package repro.bench

import scala.collection.mutable

import repro.SparkSpec
import repro.core._

/** Figures 25 + 26 — enrichment during ingestion for the five §7.2 use
  * cases: Static Java (stale, load-once) vs Dynamic Java vs Dynamic SQL++
  * at batch sizes 1X/4X/16X; refresh periods for the dynamic SQL runs.
  * Paper scale: 1 M tweets, 6 nodes, full-size references; here: scaled
  * tweets/references (DESIGN.md §5), single Spark driver.
  */
class Fig25EnrichmentBench extends SparkSpec {

  // Heavier per-record UDFs get a smaller feed so the bench stays minutes.
  private def feedSize(udf: String): Int = udf match {
    case "fuzzy_suspects" | "nearby_monuments" => 5040
    case _ => 10080
  }

  private val throughputRows = mutable.ArrayBuffer.empty[(String, String, Double)]
  private val refreshRows = mutable.ArrayBuffer.empty[(String, String, Double)]

  for (udf <- BenchUtil.simpleUdfs) {
    test(s"Fig 25: $udf — static Java vs dynamic Java/SQL across batch sizes") {
      val n = feedSize(udf)
      val stores = RefStoreSet.create(spark)

      // Each configuration is timed after one unmeasured feed of its own, so
      // none pays the JIT and codegen warm-up of its code path.
      def warmRun(b: Int, spec: EnrichmentSpec, mode: RefreshMode): IngestionReport = {
        BenchUtil.run(spark, n, b, spec, mode, stores)
        BenchUtil.run(spark, n, b, spec, mode, stores)
      }

      val stat = warmRun(6720, JavaEnrichment(udf), Static)
      throughputRows += ((udf, "staticJava", stat.throughputRecSec))

      for (b <- BenchUtil.batchSizes) {
        val dj = warmRun(b, JavaEnrichment(udf), Dynamic)
        throughputRows += ((udf, s"dynJava${BenchUtil.batchLabel(b)}", dj.throughputRecSec))
        val ds = warmRun(b, SqlEnrichment(udf), Dynamic)
        throughputRows += ((udf, s"dynSql${BenchUtil.batchLabel(b)}", ds.throughputRecSec))
        refreshRows += ((udf, BenchUtil.batchLabel(b), ds.refreshPeriodMs))
      }
      assert(stat.records == n)
    }
  }

  test("Fig 25/26: print tables and check shapes") {
    BenchUtil.banner("Fig 25 (local): enrichment throughput (rec/s), scaled feed")
    BenchUtil.row("udf", "config", "throughput rec/s")
    throughputRows.foreach { case (u, c, t) => BenchUtil.row(u, c, t) }

    BenchUtil.banner("Fig 26 (local): refresh period (ms/batch), dynamic SQL")
    BenchUtil.row("udf", "batch", "refresh ms")
    refreshRows.foreach { case (u, b, p) => BenchUtil.row(u, b, p) }

    // Refresh periods grow with batch size for every UDF (paper §7.2).
    for (udf <- BenchUtil.simpleUdfs) {
      val per = refreshRows.filter(_._1 == udf).map(_._3)
      assert(per.size == 3)
      assert(per(2) > per(0) * 0.9,
        s"$udf: refresh period should not shrink much with batch size: $per")
    }
    // Larger batches help dynamic SQL throughput for hash-join UDFs.
    for (udf <- Seq("safety_rating", "religious_population", "largest_religions")) {
      val t1 = throughputRows.find(r => r._1 == udf && r._2 == "dynSql1X").get._3
      val t16 = throughputRows.find(r => r._1 == udf && r._2 == "dynSql16X").get._3
      assert(t16 > t1, s"$udf: 16X ($t16) should beat 1X ($t1)")
    }
  }
}
