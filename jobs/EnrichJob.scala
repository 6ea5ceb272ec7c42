package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.TweetData

/** spark-submit entrypoint: enrichment during ingestion with a chosen UDF,
  * evaluation model, and batch size — the per-configuration runner behind
  * the Figure 25/26/29 experiments.
  *
  * Usage: EnrichJob <udfName> [sql|java] [dynamic|static] [batchSize] [nTweets]
  * where udfName is a key of Enrichments.byName (e.g. safety_rating).
  */
object EnrichJob {
  def main(args: Array[String]): Unit = {
    val name = args.lift(0).getOrElse("safety_rating")
    val lang = args.lift(1).getOrElse("sql")
    val mode: RefreshMode = if (args.lift(2).contains("static")) Static else Dynamic
    val batch = args.lift(3).map(_.toInt).getOrElse(1680)
    val n = args.lift(4).map(_.toInt).getOrElse(10080)
    val spec: EnrichmentSpec =
      if (lang == "java") JavaEnrichment(name) else SqlEnrichment(name)

    val spark = SparkSession.builder().appName(s"idea-enrich-$name").getOrCreate()
    try {
      val stores = RefStoreSet.create(spark)
      val r = IngestionFramework.run(spark, TweetData.localTweets(n), batch, spec, mode, stores)
      println(f"udf=$name lang=$lang mode=$mode batch=$batch records=${r.records} " +
        f"throughput=${r.throughputRecSec}%.1f rec/s refreshPeriod=${r.refreshPeriodMs}%.1f ms")
    } finally spark.stop()
  }
}
