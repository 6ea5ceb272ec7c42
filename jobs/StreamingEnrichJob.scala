package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.TweetData

/** spark-submit entrypoint: the Structured Streaming (`foreachBatch`) face
  * of the framework — micro-batched enrichment with per-batch reference
  * refresh.
  *
  * Usage: StreamingEnrichJob <udfName> [batchSize] [nTweets]
  */
object StreamingEnrichJob {
  def main(args: Array[String]): Unit = {
    val name = args.lift(0).getOrElse("safety_rating")
    val batch = args.lift(1).map(_.toInt).getOrElse(1680)
    val n = args.lift(2).map(_.toInt).getOrElse(10080)

    val spark = SparkSession.builder().appName(s"idea-stream-$name").getOrCreate()
    try {
      val stores = RefStoreSet.create(spark)
      val t0 = System.nanoTime()
      val sink = StreamingDriver.run(spark, TweetData.localTweets(n), batch,
        SqlEnrichment(name), Dynamic, stores)
      val ms = (System.nanoTime() - t0) / 1000000
      println(f"udf=$name batch=$batch stored=${sink.count} elapsedMs=$ms " +
        f"throughput=${sink.count * 1000.0 / ms}%.1f rec/s")
    } finally spark.stop()
  }
}
