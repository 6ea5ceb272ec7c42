package repro.core

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.sql.{DataFrame, SparkSession}

/** The predeployed-job optimization (paper §5.1): a computing job is
  * optimized and compiled *once*, then each batch arrival only sends an
  * invocation with new parameters — a prepared-query analog.
  *
  * Spark mapping: the **predeployed** path builds the enrichment transform
  * once and rebinds only the batch DataFrame (and reference snapshot) per
  * invocation; the **ad-hoc** path re-registers temp views and re-parses /
  * re-analyzes the full SQL text on every invocation, which is what
  * repeatedly submitted insert statements cost (paper §4.2.1–§4.2.2). The
  * bench compares the two over many invocations.
  */
object PredeployedJob {

  /** A computing job that can be invoked once per batch. */
  trait ComputingJob {
    def invoke(batch: DataFrame): DataFrame
    def invocations: Long
  }

  /** Compile once, invoke many times with only parameter rebinding. */
  def predeployed(f: (DataFrame, Refs) => DataFrame, refs: () => Refs): ComputingJob =
    new ComputingJob {
      private val n = new AtomicLong()
      // "Compilation" happens here, once: the transform closure is fixed.
      private val compiled: (DataFrame, Refs) => DataFrame = f
      override def invoke(batch: DataFrame): DataFrame = {
        n.incrementAndGet()
        compiled(batch, refs())
      }
      override def invocations: Long = n.get()
    }

  /** SQL texts for the ad-hoc path (the subset of enrichments the
    * predeployed-vs-adhoc bench exercises). `__batch` is the per-invocation
    * batch view; reference views are bound per invocation too, mirroring a
    * fresh INSERT..SELECT statement compilation. The hints broadcast the
    * reference side exactly as [[Enrichments]] does, so the two paths differ
    * only in re-parsing and re-analyzing, not in join strategy.
    */
  val adhocSql: Map[String, String] = Map(
    "safety_rating" ->
      """SELECT /*+ BROADCAST(s) */ t.*, s.safety_rating
        |FROM __batch t LEFT JOIN __safety_ratings s ON t.country = s.country_code""".stripMargin,
    "religious_population" ->
      """SELECT /*+ BROADCAST(p) */ t.*, p.religious_population
        |FROM __batch t LEFT JOIN (
        |  SELECT country_name, SUM(population) AS religious_population
        |  FROM __religious_populations GROUP BY country_name
        |) p ON t.country = p.country_name""".stripMargin)

  /** Re-parse and re-analyze the statement on every invocation. */
  def adhoc(spark: SparkSession, name: String, refs: () => Refs): ComputingJob = {
    val sqlText = adhocSql.getOrElse(name,
      throw new IllegalArgumentException(s"no ad-hoc SQL for '$name'"))
    new ComputingJob {
      private val n = new AtomicLong()
      override def invoke(batch: DataFrame): DataFrame = {
        n.incrementAndGet()
        val r = refs()
        batch.createOrReplaceTempView("__batch")
        r.safetyRatings.createOrReplaceTempView("__safety_ratings")
        r.religiousPopulations.createOrReplaceTempView("__religious_populations")
        spark.sql(sqlText) // parse + analyze + optimize, every time
      }
      override def invocations: Long = n.get()
    }
  }
}
