package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.data.TweetData
import repro.refstore.ReferenceStore

/** One snapshot of every reference dataset an enrichment may touch.
  * Enrichment functions take the whole bundle and use what they need, so
  * the framework can treat "the attached UDF" uniformly.
  */
final case class Refs(
    sensitiveWords: DataFrame,
    safetyRatings: DataFrame,
    religiousPopulations: DataFrame,
    suspects: DataFrame,
    monuments: DataFrame,
    religiousBuildings: DataFrame,
    facilities: DataFrame,
    sensitiveNames: DataFrame,
    districts: DataFrame,
    averageIncomes: DataFrame,
    residents: DataFrame,
    attackEvents: DataFrame)

/** The mutable counterpart: one [[ReferenceStore]] per reference dataset.
  * `snapshot` freezes the current state of every store into a [[Refs]] —
  * what a dynamic computing job does at the start of each invocation.
  * `staticRefs` freezes the *initial* state — what a static (Model 3)
  * pipeline holds for its whole lifetime.
  */
final class RefStoreSet(
    val sensitiveWords: ReferenceStore,
    val safetyRatings: ReferenceStore,
    val religiousPopulations: ReferenceStore,
    val suspects: ReferenceStore,
    val monuments: ReferenceStore,
    val religiousBuildings: ReferenceStore,
    val facilities: ReferenceStore,
    val sensitiveNames: ReferenceStore,
    val districts: ReferenceStore,
    val averageIncomes: ReferenceStore,
    val residents: ReferenceStore,
    val attackEvents: ReferenceStore) {

  val all: IndexedSeq[ReferenceStore] = IndexedSeq(
    sensitiveWords, safetyRatings, religiousPopulations, suspects, monuments,
    religiousBuildings, facilities, sensitiveNames, districts, averageIncomes,
    residents, attackEvents)

  def snapshot: Refs = refs(_.current.frame)

  def staticRefs: Refs = refs(_.initial.frame)

  /** One frame per store, in the order of [[Refs]]. */
  private[core] def refs(f: ReferenceStore => DataFrame): Refs = Refs(
    f(sensitiveWords), f(safetyRatings), f(religiousPopulations), f(suspects),
    f(monuments), f(religiousBuildings), f(facilities), f(sensitiveNames),
    f(districts), f(averageIncomes), f(residents), f(attackEvents))
}

object RefStoreSet {

  /** Relative cardinalities follow the paper (DESIGN.md §5 scale map);
    * `scale` multiplies every size (Figure 28's 1X–4X reference scale-out).
    */
  def create(spark: SparkSession, scale: Double = 1.0,
             nSensitiveWords: Int = 1000,
             nSafetyRatings: Int = 10000,
             nReligiousPopulations: Int = 10000,
             nSuspects: Int = 500,
             nMonuments: Int = 10000,
             nReligiousBuildings: Int = 2000,
             nFacilities: Int = 5000,
             nSensitiveNames: Int = 20000,
             nDistricts: Int = 500,
             nResidents: Int = 20000,
             nAttackEvents: Int = 2000,
             seed: Long = 0): RefStoreSet = {
    def s(n: Int): Int = math.max(1, (n * scale).toInt)
    new RefStoreSet(
      ReferenceStore(spark, "SensitiveWords", TweetData.localSensitiveWords(s(nSensitiveWords), seed + 11), "swid"),
      ReferenceStore(spark, "SafetyRatings", TweetData.localSafetyRatings(s(nSafetyRatings), seed + 13), "country_code"),
      ReferenceStore(spark, "ReligiousPopulations", TweetData.localReligiousPopulations(s(nReligiousPopulations), seed + 17), "rid"),
      ReferenceStore(spark, "SuspectsNames", TweetData.localSuspects(s(nSuspects), seed + 19), "suspect_id"),
      ReferenceStore(spark, "MonumentList", TweetData.localMonuments(s(nMonuments), seed + 23), "monument_id"),
      ReferenceStore(spark, "ReligiousBuildings", TweetData.localReligiousBuildings(s(nReligiousBuildings), seed + 29), "religious_building_id"),
      ReferenceStore(spark, "Facilities", TweetData.localFacilities(s(nFacilities), seed + 31), "facility_id"),
      ReferenceStore(spark, "SensitiveNames", TweetData.localSuspects(s(nSensitiveNames), seed + 37), "suspect_id"),
      ReferenceStore(spark, "DistrictAreas", TweetData.localDistricts(s(nDistricts)), "district_area_id"),
      ReferenceStore(spark, "AverageIncomes", TweetData.localAverageIncomes(s(nDistricts), seed + 41), "district_area_id"),
      ReferenceStore(spark, "Residents", TweetData.localResidents(s(nResidents), seed + 43), "person_id"),
      ReferenceStore(spark, "AttackEvents", TweetData.localAttackEvents(s(nAttackEvents), seed + 47), "attack_record_id"))
  }
}
