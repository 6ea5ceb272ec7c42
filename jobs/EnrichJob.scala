package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.TweetData

/** spark-submit entrypoint: ingestion with a chosen UDF, evaluation model,
  * and batch size — the per-configuration runner behind the Figure 25/26/29
  * experiments, and, with `none`, the no-UDF local run of Figure 24.
  *
  * Usage: EnrichJob <udfName> [sql|java] [dynamic|static] [batchSize] [nTweets]
  *        EnrichJob none [dynamic|static] [batchSize] [nTweets]
  * where udfName is a key of Enrichments.byName (e.g. safety_rating).
  */
object EnrichJob {
  def main(args: Array[String]): Unit = {
    val name = args.lift(0).getOrElse("safety_rating")
    // `none` takes no language argument.
    val (lang, rest) =
      if (name == "none") ("none", args.drop(1)) else (args.lift(1).getOrElse("sql"), args.drop(2))
    val mode: RefreshMode = if (rest.lift(0).contains("static")) Static else Dynamic
    val batch = rest.lift(1).map(_.toInt).getOrElse(1680)
    val n = rest.lift(2).map(_.toInt).getOrElse(10080)
    val spec: EnrichmentSpec = lang match {
      case "none" => NoEnrichment
      case "java" => JavaEnrichment(name)
      case _ => SqlEnrichment(name)
    }

    val spark = SparkSession.builder().appName(s"idea-enrich-$name").getOrCreate()
    try {
      val stores = RefStoreSet.create(spark)
      val r = IngestionFramework.run(spark, TweetData.localTweets(n), batch, spec, mode, stores)
      println(f"udf=$name lang=$lang mode=$mode batch=$batch records=${r.records} " +
        f"throughput=${r.throughputRecSec}%.1f rec/s refreshPeriod=${r.refreshPeriodMs}%.1f ms")
    } finally spark.stop()
  }
}
