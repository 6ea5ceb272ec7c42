package perfbench

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

import org.apache.spark.sql.{Row, SparkSession}

import repro.core._
import repro.data.{SafetyRating, Tweet, TweetData}

/** One measured feed: a whole `IngestionFramework.run` (or traced) call,
  * checked after it ended.
  */
final case class Feed(
    records: Long,
    failed: Long,
    wallNs: Long,
    batchDurationsMs: Seq[Long],
    /** Open loop, per batch: `onBatchDone` time minus the due time of its
      * last record on the feed's schedule. Empty on a closed loop.
      */
    freshnessMs: Seq[Double],
    traced: Option[TracedFeed],
    partitionSizes: Seq[Int],
    deltaKeys: Int)

/** Runs one workload: set-up, measured feeds and their checks. */
final class Bench(spark: SparkSession, cfg: Config) {

  private var stores: RefStoreSet = _
  private var tweets: IndexedSeq[Tweet] = _
  private var initialRatings: Map[String, String] = Map.empty

  /** The `SafetyRatings` rows upserted after each batch (index k-1 after
    * batch k): half re-rate countries that tweets join on, half add fresh
    * keys. The same schedule is replayed on every feed.
    */
  private val schedule: IndexedSeq[Seq[SafetyRating]] = {
    val rng = new Random(cfg.seed * 7919 + 1)
    val ratings = Vector("A", "B", "C", "D", "E")
    (1 to cfg.batchesPerFeed).map { k =>
      val existing = Seq.fill(cfg.upsertsPerBatch / 2)(
        SafetyRating(TweetData.countries(rng.nextInt(TweetData.NCountries)), ratings(rng.nextInt(5))))
      val fresh = (0 until cfg.upsertsPerBatch - existing.size).map(j =>
        SafetyRating(f"NEW$k%05d-$j%03d", ratings(rng.nextInt(5))))
      existing ++ fresh
    }
  }

  def fed: IndexedSeq[Tweet] = tweets

  /** Reference stores and inputs; returns seconds taken. */
  def setUp(): Double = {
    val t0 = System.nanoTime()
    stores = RefStoreSet.create(spark, seed = cfg.seed)
    if (cfg.upsertsPerBatch > 0)
      initialRatings = stores.safetyRatings.snapshot().collect()
        .map(r => r.getAs[String]("country_code") -> r.getAs[String]("safety_rating")).toMap
    tweets = TweetData.localTweets(cfg.recordsPerFeed, cfg.seed)
    (System.nanoTime() - t0) / 1e9
  }

  /** A short feed through every code path the measured feeds take, so class
    * loading and the first compilations happen before timing starts.
    * Returns seconds taken.
    */
  def warmUp(): Double = {
    val t0 = System.nanoTime()
    val st = storesForFeed()
    val warm = IngestionFramework.run(spark, tweets.take(cfg.warmupBatches * cfg.batchSize),
      cfg.batchSize, cfg.enrichment, Dynamic, st, None, cfg.queueCapacity, k => upsert(st, k, None))
    require(warm.sink.count == cfg.warmupBatches * cfg.batchSize, "warm-up lost records")
    (System.nanoTime() - t0) / 1e9
  }

  private def upsert(st: RefStoreSet, k: Int, tracer: Option[Tracer]): Unit =
    if (cfg.upsertsPerBatch > 0) {
      val rows = schedule(k - 1)
      tracer match {
        case Some(t) => t.span("refstore.upsert", k) { _ => st.safetyRatings.upsertProducts(rows) }
        case None => st.safetyRatings.upsertProducts(rows)
      }
    }

  /** Reference stores for one feed: a fresh set when the feed upserts, so
    * every feed starts from the same versions. The last set stays live.
    */
  private def storesForFeed(): RefStoreSet = {
    if (cfg.upsertsPerBatch > 0) stores = RefStoreSet.create(spark, seed = cfg.seed)
    stores
  }

  /** Run one feed through `IngestionFramework.run`, or through the traced
    * driver when a tracer is given, and check what it stored. Returns the
    * stored rows too; the sink itself is released.
    */
  def feed(tracer: Option[Tracer]): (Feed, Array[Row]) = {
    val st = storesForFeed()
    val done = ArrayBuffer.empty[Long]
    val onDone: Int => Unit = k => {
      done += System.nanoTime()
      upsert(st, k, tracer)
    }
    val t0 = System.nanoTime()
    val (sink, durations, traced) = tracer match {
      case None =>
        val r = IngestionFramework.run(spark, tweets, cfg.batchSize, cfg.enrichment, Dynamic, st,
          cfg.ratePerSec, cfg.queueCapacity, onDone)
        (r.sink, r.batchDurationsMs, None)
      case Some(t) =>
        val (sink, r) = TracedDriver.run(spark, tweets, cfg.batchSize, cfg.enrichment, st,
          cfg.ratePerSec, cfg.queueCapacity, onDone, t)
        (sink, r.batchDurationsMs, Some(r))
    }
    val wall = System.nanoTime() - t0
    // Open loop: batch k's last record is due at t0 + k * batchSize / rate.
    val freshness = cfg.ratePerSec.toSeq.flatMap(rate =>
      done.indices.map(i => (done(i) - t0) / 1e6 - (i + 1) * cfg.batchSize / rate * 1e3))
    val c0 = System.nanoTime()
    val rows = Checks.storedRows(spark, sink)
    val c1 = System.nanoTime()
    val feed = Feed(sink.count, check(rows), wall, durations, freshness, traced,
      sink.partitionSizes, st.all.map(_.deltaSize).sum)
    Main.log(f"${if (tracer.isEmpty) "" else "traced "}feed: ${wall / 1e6}%.0f ms, " +
      f"batch p50 ${Stats.median(durations.map(_.toDouble))}%.1f ms, ${feed.failed} failed; " +
      f"read back ${(c1 - c0) / 1e6}%.0f ms, checked ${(System.nanoTime() - c1) / 1e6}%.0f ms")
    (feed, rows)
  }

  private lazy val expectedFrozen: Map[Long, Row] =
    Checks.oneShot(spark, cfg.enrichment, tweets, stores.snapshot)

  /** Failed records of one feed. */
  private def check(rows: Array[Row]): Long =
    if (cfg.upsertsPerBatch > 0) Checks.upserts(rows, tweets, cfg.batchSize, initialRatings, schedule)
    else cfg.enrichment match {
      case NoEnrichment => Checks.plain(rows, tweets)
      case _ => Checks.frozen(rows, tweets, expectedFrozen)
    }
}
