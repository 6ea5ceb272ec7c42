package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.TweetData

/** spark-submit entrypoint: basic (no-UDF) ingestion through the decoupled
  * framework — the local-measurement half of the Figure 24 experiment.
  *
  * Usage: IngestJob [nTweets] [batchSize] [dynamic|static]
  */
object IngestJob {
  def main(args: Array[String]): Unit = {
    val n = args.lift(0).map(_.toInt).getOrElse(50000)
    val batch = args.lift(1).map(_.toInt).getOrElse(1680)
    val mode: RefreshMode = if (args.lift(2).contains("static")) Static else Dynamic

    val spark = SparkSession.builder().appName("idea-ingest").getOrCreate()
    try {
      val stores = RefStoreSet.create(spark)
      val r = IngestionFramework.run(spark, TweetData.localTweets(n), batch, NoEnrichment, mode, stores)
      println(f"ingested=${r.records} batches=${r.batches} elapsedMs=${r.elapsedMs} " +
        f"throughput=${r.throughputRecSec}%.1f rec/s refreshPeriod=${r.refreshPeriodMs}%.1f ms")
    } finally spark.stop()
  }
}
