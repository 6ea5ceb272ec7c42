package repro

import org.apache.spark.sql.SparkSession

import repro.core.RefStoreSet

/** Shared small-scale reference-store fixtures for unit tests. Cardinalities
  * keep the paper's relative sizes but stay DuckDB-oracle friendly.
  */
object TestRefs {
  def small(spark: SparkSession, seed: Long = 0, scale: Double = 1.0): RefStoreSet =
    RefStoreSet.create(spark,
      scale = scale,
      nSensitiveWords = 60,
      nSafetyRatings = 300,
      nReligiousPopulations = 400,
      nSuspects = 40,
      nMonuments = 500,
      nReligiousBuildings = 120,
      nFacilities = 300,
      nSensitiveNames = 400,
      nDistricts = 50,
      nResidents = 800,
      nAttackEvents = 150,
      seed = seed)
}
