package perfbench

import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.StructType

import repro.core._
import repro.data.Tweet
import repro.feed.{FeedSource, PartitionHolder, PartitionHolderManager, StorageSink}

/** What one traced feed leaves behind besides its spans and its sink. */
final case class TracedFeed(
    batchDurationsMs: Seq[Long],
    intakeDepthMax: Int,
    storageDepthMax: Int,
    rowsIn: Long,
    rowsOut: Long)

/** The computing-job loop of `IngestionFramework.run` (Dynamic mode),
  * rebuilt from the layers' public calls so that each call can be timed from
  * outside. It must store exactly what `IngestionFramework.run` stores for
  * the same inputs; the benchmark checks that on every traced run.
  */
object TracedDriver {

  private val nextRunId = new AtomicLong()

  def run(
      spark: SparkSession,
      tweets: Seq[Tweet],
      batchSize: Int,
      spec: EnrichmentSpec,
      stores: RefStoreSet,
      ratePerSec: Option[Double],
      queueCapacity: Int,
      onBatchDone: Int => Unit,
      tracer: Tracer): (StorageSink, TracedFeed) = {

    val runId = nextRunId.incrementAndGet()
    val intakeHolder = PartitionHolderManager.register(
      new PartitionHolder[Seq[Tweet]](s"traced-intake-$runId", queueCapacity))
    val storageHolder = PartitionHolderManager.register(
      new PartitionHolder[(Seq[Row], StructType)](s"traced-storage-$runId", queueCapacity))
    val sink = new StorageSink()
    val sc = spark.sparkContext

    try {
      val storageThread = new Thread(() => {
        var k = 0
        var next = storageHolder.pull()
        while (next.isDefined) {
          val (rows, schema) = next.get
          k += 1
          tracer.span("feed.storage.append", k) { _ => sink.append(rows, schema) }
          next = storageHolder.pull()
        }
      }, s"traced-storage-job-$runId")
      storageThread.setDaemon(true)

      val batchDurations = ArrayBuffer.empty[Long]
      var intakeDepthMax, storageDepthMax = 0
      var rowsIn, rowsOut = 0L

      storageThread.start()
      val intakeThread = new FeedSource(tweets, batchSize, ratePerSec).start(intakeHolder)

      var k = 1
      intakeDepthMax = math.max(intakeDepthMax, intakeHolder.size)
      var next = tracer.span("feed.intake.wait", k) { _ => intakeHolder.pull() }
      while (next.isDefined) {
        val batch = next.get
        sc.setLocalProperty(SparkCounters.BatchKey, k.toString)
        val b0 = System.nanoTime()
        tracer.span(Tracer.Batch, k) { root =>
          val batchDf = tracer.span("core.todf", k, root) { _ => spark.createDataFrame(batch) }
          val enriched: DataFrame = spec match {
            case NoEnrichment =>
              tracer.span("core.plan", k, root) { _ => planned(batchDf) }
            case SqlEnrichment(name) =>
              val refs = tracer.span("refstore.snapshot", k, root) { _ => stores.snapshot }
              tracer.span("core.plan", k, root) { _ => planned(Enrichments.byName(name)(batchDf, refs)) }
            case JavaEnrichment(name) =>
              val refs = tracer.span("refstore.snapshot", k, root) { _ => stores.snapshot }
              val compiled = tracer.span("core.java_compile", k, root) { _ => JavaUdfs.compile(name, refs) }
              tracer.span("core.plan", k, root) { _ => planned(compiled.apply(batchDf)) }
          }
          val rows = tracer.span("core.exec", k, root) { _ => enriched.collect().toSeq }
          storageDepthMax = math.max(storageDepthMax, storageHolder.size)
          tracer.span("feed.storage.push", k, root) { _ => storageHolder.push((rows, enriched.schema)) }
          rowsIn += batch.size
          rowsOut += rows.size
        }
        batchDurations += (System.nanoTime() - b0) / 1000000L
        sc.setLocalProperty(SparkCounters.BatchKey, null)
        onBatchDone(k)
        k += 1
        intakeDepthMax = math.max(intakeDepthMax, intakeHolder.size)
        next = tracer.span("feed.intake.wait", k) { _ => intakeHolder.pull() }
      }
      storageHolder.close()
      storageThread.join()
      intakeThread.join()
      (sink, TracedFeed(batchDurations.toSeq, intakeDepthMax, storageDepthMax, rowsIn, rowsOut))
    } finally {
      PartitionHolderManager.unregister(intakeHolder.id)
      PartitionHolderManager.unregister(storageHolder.id)
    }
  }

  /** Plan the query now, as `collect()` would, so planning is timed apart
    * from execution. `collect()` reuses this physical plan.
    */
  private def planned(df: DataFrame): DataFrame = {
    df.queryExecution.executedPlan
    df
  }
}
