package repro.core

import org.apache.spark.sql.{Dataset, Row, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream

import repro.data.Tweet
import repro.feed.StorageSink

/** Structured Streaming face of the framework: the [[PreparedJob]] of
  * [[IngestionFramework]], driven by `foreachBatch` over a micro-batched
  * stream instead of the explicit intake / storage holders.
  *
  * The job is prepared once, before the query starts, and invoked once per
  * micro-batch; in Dynamic mode each invocation rebinds the reference
  * stores whose version changed — the standard Spark recipe for enrichment
  * joins against reference data that changes underneath a stream. The two
  * drivers must produce identical rows for identical inputs; a test
  * asserts it.
  *
  * The source stays a `MemoryStream`, because showing the framework as a
  * standard Structured Streaming query is this driver's purpose; the
  * ingestion benchmark (`perfbench/`) measures [[IngestionFramework]], not
  * this driver.
  */
object StreamingDriver {

  def run(
      spark: SparkSession,
      tweets: Seq[Tweet],
      batchSize: Int,
      spec: EnrichmentSpec,
      mode: RefreshMode,
      stores: RefStoreSet,
      onBatchDone: Int => Unit = _ => ()): StorageSink = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext

    val sink = new StorageSink()
    val stream = MemoryStream[Tweet]

    val job = PreparedJob(spark, spec, mode, stores)

    // The micro-batch is a local relation of tweets: its plan hands over
    // the encoded rows without a Spark job.
    val query = stream.toDF().writeStream
      .outputMode("append")
      .foreachBatch { (batchDf: Dataset[Row], _: Long) =>
        sink.append(job.invoke(batchDf.queryExecution.executedPlan.executeCollect()), job.schema)
      }
      .start()

    try {
      var batches = 0
      tweets.grouped(batchSize).foreach { chunk =>
        stream.addData(chunk)
        query.processAllAvailable() // one chunk == one micro-batch
        batches += 1
        onBatchDone(batches)
      }
    } finally {
      query.stop()
      query.awaitTermination()
    }
    sink
  }
}
