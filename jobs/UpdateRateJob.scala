package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.core._
import repro.data.{SafetyRating, TweetData}

/** spark-submit entrypoint: enrichment under concurrent reference updates —
  * the Figure 27 experiment. An updater thread upserts into the reference
  * store at a fixed rate while the feed runs.
  *
  * Usage: UpdateRateJob <udfName> [updatesPerSec] [batchSize] [nTweets]
  */
object UpdateRateJob {
  def main(args: Array[String]): Unit = {
    val name = args.lift(0).getOrElse("safety_rating")
    val rate = args.lift(1).map(_.toDouble).getOrElse(100.0)
    val batch = args.lift(2).map(_.toInt).getOrElse(1680)
    val n = args.lift(3).map(_.toInt).getOrElse(5040)

    val spark = SparkSession.builder().appName(s"idea-updates-$name").getOrCreate()
    try {
      val stores = RefStoreSet.create(spark)
      @volatile var stop = false
      val updater = new Thread(() => {
        var i = 0
        while (!stop && rate > 0) {
          stores.safetyRatings.upsertProducts(Seq(SafetyRating(f"UPD$i%06d", "X")))
          i += 1
          Thread.sleep(math.max(1, (1000 / rate).toLong))
        }
      })
      updater.setDaemon(true)
      updater.start()
      val r = IngestionFramework.run(spark, TweetData.localTweets(n), batch,
        SqlEnrichment(name), Dynamic, stores)
      stop = true
      println(f"udf=$name updateRate=$rate%.0f/s records=${r.records} " +
        f"throughput=${r.throughputRecSec}%.1f rec/s deltaSize=${stores.safetyRatings.deltaSize}")
    } finally spark.stop()
  }
}
