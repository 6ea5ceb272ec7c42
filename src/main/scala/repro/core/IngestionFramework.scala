package repro.core

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.types.StructType

import repro.data.Tweet
import repro.feed.{FeedSource, PartitionHolder, PartitionHolderManager, StorageSink}

/** Which UDF is attached to the feed, and how it is evaluated. */
sealed trait EnrichmentSpec
/** Plain ingestion — the computing job just moves data (Figure 24). */
case object NoEnrichment extends EnrichmentSpec
/** Declarative (SQL++-analog) enrichment from [[Enrichments.byName]]. */
final case class SqlEnrichment(name: String) extends EnrichmentSpec {
  require(Enrichments.byName.contains(name), s"unknown SQL enrichment '$name'")
}
/** Per-record (Java-analog) enrichment from [[JavaUdfs]]. */
final case class JavaEnrichment(name: String) extends EnrichmentSpec {
  require(JavaUdfs.supported.contains(name), s"unknown Java enrichment '$name'")
}

/** When intermediate state is (re)built from reference data. */
sealed trait RefreshMode
/** Per computing job — the paper's new framework (Model 2). */
case object Dynamic extends RefreshMode
/** Once at feed start — the current-AsterixDB baseline (Model 3); stale. */
case object Static extends RefreshMode

/** Outcome of one ingestion run. */
final case class IngestionReport(
    records: Long,
    batches: Int,
    elapsedMs: Long,
    batchDurationsMs: Seq[Long],
    sink: StorageSink) {
  /** End-to-end records/second — the paper's throughput metric. */
  def throughputRecSec: Double = records * 1000.0 / math.max(1L, elapsedMs)
  /** Mean execution time per computing job — the paper's refresh period. */
  def refreshPeriodMs: Double =
    if (batchDurationsMs.isEmpty) 0.0 else batchDurationsMs.sum.toDouble / batchDurationsMs.size
}

/** The decoupled ingestion framework (paper §5–§6), single-node Spark
  * analog with the same three-layer life cycle:
  *
  *  - **intake job** — a [[FeedSource]] thread frames tweets into a passive
  *    [[PartitionHolder]] and closes it with EOF when the feed stops;
  *  - **computing job** — invoked repeatedly (this loop is the Active Feed
  *    Manager): pull one batch, invoke the [[PreparedJob]] built by
  *    [[PredeployedJob.predeployed]] on it, and push the enriched rows on;
  *  - **storage job** — a thread draining an active [[PartitionHolder]]
  *    into a hash-partitioned [[StorageSink]].
  *
  * The storage and intake threads start first, and the computing job is
  * prepared while the intake frames the first batch. The job's physical
  * plan is prepared once per feed; each invocation rebinds the batch and,
  * in Dynamic mode, the reference stores whose version changed since the
  * previous batch. So every batch that starts between two upserts reuses
  * the broadcasts of the previous one, and only the first batch after an
  * upsert rebuilds those over the store it changed.
  *
  * The computing models of §4.3 are parameter choices of [[run]]:
  * Model 1 (per record) is `batchSize = 1` in Dynamic mode, Model 2 (per
  * batch, the framework default) is Dynamic mode, and Model 3 (the stream
  * as an infinite dataset, state built once and never refreshed) is Static
  * mode.
  */
object IngestionFramework {

  private val nextRunId = new java.util.concurrent.atomic.AtomicLong()

  def run(
      spark: SparkSession,
      tweets: Seq[Tweet],
      batchSize: Int,
      spec: EnrichmentSpec,
      mode: RefreshMode,
      stores: RefStoreSet,
      ratePerSec: Option[Double] = None,
      queueCapacity: Int = 64,
      onBatchDone: Int => Unit = _ => ()): IngestionReport = {

    val runId = nextRunId.incrementAndGet()
    val intakeHolder = PartitionHolderManager.register(
      new PartitionHolder[Seq[Tweet]](s"intake-$runId", queueCapacity))
    val storageHolder = PartitionHolderManager.register(
      new PartitionHolder[(Seq[Row], StructType)](s"storage-$runId", queueCapacity))
    val sink = new StorageSink()

    try {
      // Storage job: long-running, starts with the feed.
      val storageThread = new Thread(() => {
        var next = storageHolder.pull()
        while (next.isDefined) {
          val (rows, schema) = next.get
          sink.append(rows, schema)
          next = storageHolder.pull()
        }
      }, s"storage-job-$runId")
      storageThread.setDaemon(true)

      val batchDurations = ArrayBuffer.empty[Long]
      val t0 = System.nanoTime()

      storageThread.start()
      val intakeThread = new FeedSource(tweets, batchSize, ratePerSec).start(intakeHolder)

      // Prepared while the intake frames the first batch.
      val job = PredeployedJob.predeployed(spark, spec, mode, stores)

      // Active Feed Manager loop: one computing job at a time, next one
      // invoked when the previous finishes; EOF ends the feed.
      var records = 0L
      var batches = 0
      var next = intakeHolder.pull()
      while (next.isDefined) {
        val batch = next.get
        val b0 = System.nanoTime()
        storageHolder.push((job(batch), job.schema))
        batchDurations += (System.nanoTime() - b0) / 1000000L
        records += batch.size
        batches += 1
        onBatchDone(batches)
        next = intakeHolder.pull()
      }
      storageHolder.close()
      storageThread.join()
      intakeThread.join()
      val elapsedMs = (System.nanoTime() - t0) / 1000000L

      IngestionReport(records, batches, elapsedMs, batchDurations.toSeq, sink)
    } finally {
      PartitionHolderManager.unregister(intakeHolder.id)
      PartitionHolderManager.unregister(storageHolder.id)
    }
  }
}
