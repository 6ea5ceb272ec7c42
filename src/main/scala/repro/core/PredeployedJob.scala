package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** The computing job, predeployed (paper §5.1): planned and prepared
  * *once*, then invoked per batch with only the batch as a new parameter —
  * a prepared-query analog.
  *
  * [[predeployed]] is the one computing-job core. [[IngestionFramework]]
  * invokes it once per batch pulled from the intake holder,
  * [[StreamingDriver]] once per `foreachBatch` micro-batch.
  *
  * The **ad-hoc** path ([[adhoc]]) re-registers temp views and re-parses /
  * re-analyzes the full SQL text on every invocation, which is what
  * repeatedly submitted insert statements cost (paper §4.2.1–§4.2.2). The
  * bench compares the two over many invocations.
  */
object PredeployedJob {

  /** Build the computing job for `spec` under `mode` as a [[PreparedJob]].
    * Static mode binds every store's version 0 for good. Dynamic
    * invocations rebind each store the job reads whose version has
    * changed, so each batch sees exactly the upserts applied before it
    * started. With no enrichment the plan is the batch scan alone.
    */
  def predeployed(spark: SparkSession, spec: EnrichmentSpec, mode: RefreshMode, stores: RefStoreSet): PreparedJob =
    spec match {
      case NoEnrichment =>
        PreparedJob(spark, stores, mode, (batch, _) => batch, compilesState = false)
      case SqlEnrichment(name) =>
        PreparedJob(spark, stores, mode, Enrichments.byName(name), compilesState = false)
      case JavaEnrichment(name) =>
        PreparedJob(spark, stores, mode, (batch, refs) => JavaUdfs.compile(name, refs)(batch),
          compilesState = true)
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

  /** Re-parse and re-analyze the statement on every invocation, against the
    * current reference snapshot.
    */
  def adhoc(spark: SparkSession, name: String, stores: RefStoreSet): DataFrame => DataFrame = {
    val sqlText = adhocSql.getOrElse(name,
      throw new IllegalArgumentException(s"no ad-hoc SQL for '$name'"))
    batch => {
      val r = stores.snapshot
      batch.createOrReplaceTempView("__batch")
      r.safetyRatings.createOrReplaceTempView("__safety_ratings")
      r.religiousPopulations.createOrReplaceTempView("__religious_populations")
      spark.sql(sqlText) // parse + analyze + optimize, every time
    }
  }
}
