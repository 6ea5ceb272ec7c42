package repro.core

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.types.StructType

import repro.data.Tweet
import repro.feed.{FeedSource, PartitionHolder, PartitionHolderManager, StorageSink}

/** Outcome of one ingestion run; `records` counts the rows stored. */
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
  *    Manager): pull one batch, invoke the feed's [[PreparedJob]] on it,
  *    and push the enriched rows on, still encoded as the prepared plan
  *    produced them;
  *  - **storage job** — a thread draining an active [[PartitionHolder]]
  *    into a hash-partitioned [[StorageSink]].
  *
  * If the computing job fails, to prepare or on a batch, the feed stops:
  * the intake thread is interrupted, the storage holder is closed, both
  * threads are joined, and `run` rethrows the failure.
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

  /** How long a failed feed waits for each of its threads to end. */
  private val StopTimeoutMs = 10000L

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

    val source = new FeedSource(tweets, batchSize, ratePerSec)
    val runId = nextRunId.incrementAndGet()
    val intakeHolder = PartitionHolderManager.register(
      new PartitionHolder[Seq[Tweet]](s"intake-$runId", queueCapacity))
    val storageHolder = PartitionHolderManager.register(
      new PartitionHolder[(Array[InternalRow], StructType)](s"storage-$runId", queueCapacity))
    val sink = new StorageSink()

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
    val intakeThread = source.start(intakeHolder)

    try {
      // Prepared while the intake frames the first batch.
      val job = PreparedJob(spark, spec, mode, stores)

      // Active Feed Manager loop: one computing job at a time, next one
      // invoked when the previous finishes; EOF ends the feed.
      var batches = 0
      var next = intakeHolder.pull()
      while (next.isDefined) {
        val b0 = System.nanoTime()
        storageHolder.push((job(next.get), job.schema))
        batchDurations += (System.nanoTime() - b0) / 1000000L
        batches += 1
        onBatchDone(batches)
        next = intakeHolder.pull()
      }
      storageHolder.close()
      storageThread.join()
      intakeThread.join()
      val elapsedMs = (System.nanoTime() - t0) / 1000000L

      IngestionReport(sink.count, batches, elapsedMs, batchDurations.toSeq, sink)
    } catch {
      case e: Throwable =>
        // The computing job failed: stop the intake, let storage store what
        // it was handed, and give the caller the cause.
        intakeThread.interrupt()
        storageHolder.close()
        intakeThread.join(StopTimeoutMs)
        storageThread.join(StopTimeoutMs)
        throw e
    } finally {
      PartitionHolderManager.unregister(intakeHolder.id)
      PartitionHolderManager.unregister(storageHolder.id)
    }
  }
}
