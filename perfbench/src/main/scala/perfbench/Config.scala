package perfbench

import repro.core.{EnrichmentSpec, JavaEnrichment, NoEnrichment, SqlEnrichment}

/** One run of one workload. `run.py` fills the workload parameters from
  * `perfbench/spec.json`; the seed, run length and trace flag come from the
  * caller.
  */
final case class Config(
    workload: String,
    seed: Long,
    seconds: Double,
    trace: Boolean,
    enrichment: EnrichmentSpec,
    batchSize: Int,
    /** Offered records/s of the open-loop source; `None` is a closed loop. */
    ratePerSec: Option[Double],
    upsertsPerBatch: Int,
    batchesPerFeed: Int,
    warmupBatches: Int,
    queueCapacity: Int,
    tailPercentile: Double,
    setupReps: Int,
    master: String,
    sparkConf: Seq[(String, String)],
    outDir: String) {

  def recordsPerFeed: Int = batchSize * batchesPerFeed
}

object Config {

  def parse(args: Array[String]): Config = {
    require(args.length % 2 == 0, s"expected --key value pairs, got ${args.mkString(" ")}")
    val pairs = args.grouped(2).map { case Array(k, v) =>
      require(k.startsWith("--"), s"bad flag '$k'")
      k.drop(2) -> v
    }.toSeq
    val one = pairs.toMap
    def get(k: String): String = one.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))

    val rate = get("rate").toDouble
    Config(
      workload = get("workload"),
      seed = get("seed").toLong,
      seconds = get("seconds").toDouble,
      trace = get("trace") == "1",
      enrichment = enrichment(get("enrichment")),
      batchSize = get("batch-size").toInt,
      ratePerSec = if (rate > 0) Some(rate) else None,
      upsertsPerBatch = get("upserts-per-batch").toInt,
      batchesPerFeed = get("batches-per-feed").toInt,
      warmupBatches = get("warmup-batches").toInt,
      queueCapacity = get("queue-capacity").toInt,
      tailPercentile = get("tail-percentile").toDouble,
      setupReps = get("setup-reps").toInt,
      master = get("master"),
      sparkConf = pairs.collect { case ("conf", kv) =>
        val i = kv.indexOf('=')
        require(i > 0, s"bad --conf '$kv'")
        kv.take(i) -> kv.drop(i + 1)
      },
      outDir = get("out"))
  }

  /** `none`, `sql:<udf>` or `java:<udf>`. */
  def enrichment(s: String): EnrichmentSpec = s.split(":", 2) match {
    case Array("none") => NoEnrichment
    case Array("sql", name) => SqlEnrichment(name)
    case Array("java", name) => JavaEnrichment(name)
    case _ => throw new IllegalArgumentException(s"bad enrichment '$s'")
  }
}
