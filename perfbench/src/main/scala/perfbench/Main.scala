package perfbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory

import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.SparkSession

/** Entry point: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`
  * plus the workload's parameters (see `perfbench/run.py`). Prints a table,
  * then one JSON result line as the last line of standard output.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val cfg = Config.parse(args)
    var spark: SparkSession = null
    var bench: Bench = null
    val status =
      try {
        // Each set-up round starts a Spark session, creates the reference
        // stores and inputs and runs a warm-up feed; the first round counts
        // from JVM start. setup_s is the median round.
        val rounds = (1 to cfg.setupReps).map { r =>
          if (spark != null) spark.stop()
          val t0 = System.nanoTime()
          spark = session(cfg)
          val sessionS = if (r == 1) uptimeS() else (System.nanoTime() - t0) / 1e9
          bench = new Bench(spark, cfg)
          val storesS = bench.setUp()
          val warmS = bench.warmUp()
          log(f"set-up round $r: session $sessionS%.2f s, stores and inputs $storesS%.2f s, warm-up $warmS%.2f s")
          sessionS + storesS + warmS
        }
        val setupS = Stats.median(rounds)
        val counters = new SparkCounters
        spark.sparkContext.addSparkListener(counters)
        val result =
          if (cfg.trace) traced(spark, cfg, bench, counters)
          else measured(spark, cfg, bench, setupS)
        report(cfg, result)
        log("done")
        0
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          1
      } finally if (spark != null) spark.stop()
    sys.exit(status)
  }

  private def session(cfg: Config): SparkSession = {
    val builder = SparkSession.builder().master(cfg.master).appName(s"perfbench-${cfg.workload}")
    cfg.sparkConf.foreach { case (k, v) => builder.config(k, v) }
    builder.getOrCreate()
  }

  private def uptimeS(): Double = ManagementFactory.getRuntimeMXBean.getUptime / 1000.0

  def log(msg: String): Unit = {
    Console.err.println(f"[perfbench ${uptimeS()}%7.2f s] $msg")
  }

  final case class Metric(name: String, value: Double, unit: String)
  final case class Result(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric], notes: Seq[String])

  private def timeLeft(cfg: Config, spentNs: Long): Boolean = spentNs < cfg.seconds * 1e9

  private def tailName(cfg: Config): String = f"p${cfg.tailPercentile}%.0f"

  /** Untraced run: feeds back to back through `IngestionFramework.run` until
    * `--seconds` of feeding is measured, each checked after it ends.
    */
  private def measured(spark: SparkSession, cfg: Config, bench: Bench, setupS: Double): Result = {
    val q = cfg.tailPercentile / 100
    var spentNs, records, attempted, failed = 0L
    val refresh = ArrayBuffer.empty[Double]
    val fresh = ArrayBuffer.empty[Double]
    var feeds = 0
    while (feeds == 0 || timeLeft(cfg, spentNs)) {
      val f = bench.feed(None)._1
      feeds += 1
      spentNs += f.wallNs
      records += f.records
      refresh ++= f.batchDurationsMs.map(_.toDouble)
      fresh ++= f.freshnessMs
      attempted += bench.fed.size
      failed += f.failed
    }
    log(f"measured ${spentNs / 1e9}%.2f s in $feeds feeds")
    val heapMb = retainedHeapMb(spark)
    val refreshP50 = Stats.timingQuantile(refresh.toSeq, 0.5, 1.0)
    val refreshTail = Stats.timingQuantile(refresh.toSeq, q, 1.0)
    // A closed loop offers batch k when batch k-1 is done: freshness is the
    // refresh period there.
    val (freshP50, freshTail) =
      if (cfg.ratePerSec.isEmpty) (refreshP50, refreshTail)
      else (Stats.timingQuantile(fresh.toSeq, 0.5, 1e-6), Stats.timingQuantile(fresh.toSeq, q, 1e-6))
    val notes = Seq(
      s"feeds=$feeds batches=${refresh.size} tail=${tailName(cfg)} " +
        s"beyond_tail=${Stats.beyond(refresh.size, q)}",
      f"failed_frac=${failed.toDouble / attempted}%.6f (${failed} of ${attempted} records)")
    Result(failed == 0, attempted, failed, Seq(
      Metric("throughput_rec_s", records / (spentNs / 1e9), "rec/s"),
      Metric("refresh_ms_p50", refreshP50, "ms"),
      Metric("refresh_ms_tail", refreshTail, "ms"),
      Metric("freshness_ms_p50", freshP50, "ms"),
      Metric("freshness_ms_tail", freshTail, "ms"),
      Metric("setup_s", setupS, "s"),
      Metric("heap_retained_mb", heapMb, "MB")), notes)
  }

  /** Live heap in MB (10^6 bytes) once it has settled. Two kinds of Spark
    * state outlive the last feed for a while, and a single reading straight
    * after a full collection counted them in some runs and not in others:
    *  - Spark's listener threads keep the last event they delivered
    *    reachable until the next one arrives. After a feed that is the end of
    *    the read-back query, with its plan and rows (about 47 MB on
    *    ingest-plain). A one-task job replaces it first.
    *  - A full collection hands the unreachable RDDs, shuffles and broadcasts
    *    of earlier jobs to the ContextCleaner, which releases their state on
    *    its own thread (about 60 MB on enrich-sql-upserts). Collections
    *    therefore repeat, 250 ms apart, for at least a second and until two
    *    readings agree within 1 MB.
    */
  private def retainedHeapMb(spark: SparkSession): Double = {
    spark.sparkContext.parallelize(Seq(1), 1).count()
    val mem = ManagementFactory.getMemoryMXBean
    def collectedMb(): Double = {
      System.gc()
      mem.getHeapMemoryUsage.getUsed / 1e6
    }
    var readings = Vector(collectedMb())
    while (readings.size < 5 || (readings.size < 40 && math.abs(readings.last - readings.init.last) > 1.0)) {
      Thread.sleep(250)
      readings :+= collectedMb()
    }
    log("heap after collections: " + readings.map(x => f"$x%.1f").mkString(" ") + " MB")
    readings.last
  }

  private def gcMs(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ > 0).sum

  /** Traced run: untraced and traced feeds of the same inputs alternate;
    * their stored rows must be equal. Per-layer numbers come from the
    * traced feeds only.
    */
  private def traced(spark: SparkSession, cfg: Config, bench: Bench, counters: SparkCounters): Result = {
    val tracer = new Tracer
    var attempted, failed, mismatched = 0L
    var plainNs, plainRecords, tracedNs, tracedRecords, gc = 0L
    val feeds = ArrayBuffer.empty[TracedFeed]
    var skew, deltaKeys = 0.0
    var pairs = 0
    val sparkByBatch = ArrayBuffer.empty[((Int, Int), Map[String, Double])]
    while (pairs == 0 || timeLeft(cfg, plainNs + tracedNs)) {
      val (plain, plainRows) = bench.feed(None)
      val feedNo = tracer.nextFeed()
      val g0 = gcMs()
      val (t, tracedRows) = bench.feed(Some(tracer))
      gc += gcMs() - g0
      counters.awaitDrained(30000)
      sparkByBatch ++= counters.drain().map { case (b, m) => (feedNo, b) -> m }
      pairs += 1
      plainNs += plain.wallNs; plainRecords += plain.records
      tracedNs += t.wallNs; tracedRecords += t.records
      attempted += 2L * bench.fed.size
      failed += plain.failed + t.failed
      mismatched += Checks.differences(plainRows, tracedRows)
      feeds += t.traced.get
      skew = math.max(skew, t.partitionSizes.max / (t.partitionSizes.sum.toDouble / t.partitionSizes.size))
      deltaKeys = math.max(deltaKeys, t.deltaKeys)
    }
    val spans = tracer.spans
    writeTrace(cfg, spans, sparkByBatch.toSeq)
    val batchSpans = spans.filter(_.name == Tracer.Batch)
    // Batches that ran no Spark job (e.g. collect of a local relation) count 0.
    val sparkCounts = sparkByBatch.toMap
    val perBatch = batchSpans.map(s => sparkCounts.getOrElse((s.feed, s.batch), Map.empty))

    def ms(name: String): Seq[Double] = spans.filter(_.name == name).map(_.ms)
    def p50(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else Stats.median(xs)
    val self = Tracer.selfMs(spans)
    val batchSum = batchSpans.map(_.ms).sum
    val selfSum = batchSpans.map(s => self(s.id)).sum
    val timings = Tracer.Names.flatMap { n =>
      val xs = ms(n)
      Seq(Metric(s"${n}_ms", p50(xs), "ms"), Metric(s"${n}_ms_sum", xs.sum, "ms"))
    }
    def sparkP50(key: String): Double = p50(perBatch.map(_.getOrElse(key, 0.0)).toSeq)
    val overhead = 1 - (tracedRecords / (tracedNs / 1e9)) / (plainRecords / (plainNs / 1e9))
    val jobs = perBatch.map(_.getOrElse(SparkCounters.Jobs, 0.0))
    val tasks = perBatch.map(_.getOrElse(SparkCounters.Tasks, 0.0))
    val notes = Seq(
      s"pairs=$pairs traced_batches=${batchSpans.size} mismatched_ids=$mismatched",
      s"jobs_per_batch min=${jobs.min} max=${jobs.max}; tasks_per_batch min=${tasks.min} max=${tasks.max}",
      f"failed_frac=${failed.toDouble / attempted}%.6f (${failed} of ${attempted} records)")
    Result(failed == 0 && mismatched == 0, attempted, failed + mismatched, timings ++ Seq(
      Metric("core.batch_self_ms_sum", selfSum, "ms"),
      Metric("trace.child_coverage", (batchSum - selfSum) / batchSum, "ratio"),
      Metric("trace.overhead_frac", overhead, "ratio"),
      Metric("feed.intake.depth_max", feeds.map(_.intakeDepthMax).max.toDouble, "count"),
      Metric("feed.storage.depth_max", feeds.map(_.storageDepthMax).max.toDouble, "count"),
      Metric("feed.storage.skew", skew, "ratio"),
      Metric("refstore.delta_keys", deltaKeys, "count"),
      Metric("core.rows_in", feeds.map(_.rowsIn).sum.toDouble, "count"),
      Metric("core.rows_out", feeds.map(_.rowsOut).sum.toDouble, "count"),
      Metric("spark.jobs_per_batch", sparkP50(SparkCounters.Jobs), "count"),
      Metric("spark.stages_per_batch", sparkP50(SparkCounters.Stages), "count"),
      Metric("spark.tasks_per_batch", sparkP50(SparkCounters.Tasks), "count"),
      Metric("spark.shuffle_bytes_per_batch", sparkP50(SparkCounters.ShuffleBytes), "bytes"),
      Metric("spark.task_cpu_ms_per_batch", sparkP50(SparkCounters.CpuMs), "ms"),
      Metric("spark.gc_ms", gc.toDouble, "ms")), notes)
  }

  private def writeTrace(cfg: Config, spans: Seq[Span], perBatch: Seq[((Int, Int), Map[String, Double])]): Unit = {
    val dir = new File(cfg.outDir)
    dir.mkdirs()
    val out = new PrintWriter(new File(dir, s"${cfg.workload}-seed${cfg.seed}.json"), "UTF-8")
    try out.println(Tracer.toJson(cfg.workload, cfg.seed, spans, perBatch)) finally out.close()
  }

  private def report(cfg: Config, r: Result): Unit = {
    println(s"# workload=${cfg.workload} seed=${cfg.seed} trace=${if (cfg.trace) 1 else 0} " +
      s"master=${cfg.master} correct=${r.correct}")
    r.notes.foreach(n => println(s"# $n"))
    r.metrics.foreach(m => println(f"${m.name}%-34s ${m.value}%16.4f ${m.unit}"))
    println(Json.obj(Seq(
      "correct" -> r.correct, "attempted" -> r.attempted, "failed" -> r.failed,
      "metrics" -> ListMap(r.metrics.map(m => m.name -> ListMap("value" -> m.value, "unit" -> m.unit)): _*))))
  }
}
