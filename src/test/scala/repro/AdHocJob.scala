package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.RefStoreSet

/** The ad-hoc computing job, the baseline of the predeployed job (paper
  * §4.2.1–§4.2.2, §5.1): every invocation re-registers temp views and
  * re-parses and re-analyzes the full SQL text, which is what repeatedly
  * submitted insert statements cost. The specs check that it returns the
  * predeployed job's rows; the §5.1 bench compares the two over many
  * invocations.
  */
object AdHocJob {

  /** SQL texts for the subset of enrichments the predeployed-vs-ad-hoc
    * bench exercises. `__batch` is the per-invocation batch view; reference
    * views are bound per invocation too, mirroring a fresh INSERT..SELECT
    * statement compilation. The hints broadcast the reference side exactly
    * as [[repro.core.Enrichments]] does, so the two paths differ only in
    * re-parsing and re-analyzing, not in join strategy.
    */
  private val sql: Map[String, String] = Map(
    "safety_rating" ->
      """SELECT /*+ BROADCAST(s) */ t.*, s.safety_rating
        |FROM __batch t LEFT JOIN __safety_ratings s ON t.country = s.country_code""".stripMargin,
    "religious_population" ->
      """SELECT /*+ BROADCAST(p) */ t.*, p.religious_population
        |FROM __batch t LEFT JOIN (
        |  SELECT country_name, SUM(population) AS religious_population
        |  FROM __religious_populations GROUP BY country_name
        |) p ON t.country = p.country_name""".stripMargin)

  /** The named enrichment as an ad-hoc job: each call parses and analyzes
    * the statement again, against the current reference snapshot.
    */
  def apply(spark: SparkSession, name: String, stores: RefStoreSet): DataFrame => DataFrame = {
    val sqlText = sql.getOrElse(name,
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
