package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.spatial.Spatial
import repro.text.Text

/** The paper's enrichment UDFs as declarative DataFrame transforms — the
  * SQL++ UDF analogs. Each function takes the tweet batch plus a [[Refs]]
  * snapshot and returns the batch with enrichment columns appended
  * (`SELECT t.*, <enrichment>`), exactly the shape of the paper's
  * `CREATE FUNCTION enrichTweetQn`.
  *
  * Every join input derived from reference data carries an explicit
  * `broadcast()` hint, as do the per-tweet aggregates joined back onto the
  * batch: both sides are small, so each join is a broadcast hash or nested
  * loop join and no batch is shuffled against a reference table. Explicit
  * hints hold even with `spark.sql.autoBroadcastJoinThreshold = -1`.
  *
  * List-valued enrichments (largest religions, nearby monuments, …) are
  * emitted as deterministically ordered comma-joined strings so results are
  * scalar-comparable against the DuckDB oracle; empty lists become "".
  *
  * Note on Largest Religions: the paper's Figure 34 writes
  * `ORDER BY r.population LIMIT 3`, which as written selects the three
  * *smallest* religions; we follow the use case's stated intent ("three
  * largest") and order descending, tie-broken by religion name.
  */
object Enrichments {

  private val edUdf = udf((a: String, b: String) => Text.editDistance(a, b))
  private val rsUdf = udf((s: String) => Text.removeSpecial(s))

  /** Rank-ordered list → "v1,v2,…" where `items` is a collect_list of
    * struct(rank, value); array_sort orders by rank (then value).
    */
  private def rankedConcat(items: Column): Column =
    array_join(transform(array_sort(items), x => x("value")), ",")

  private def leftEnrich(tweets: DataFrame, perId: DataFrame,
                         fills: Map[String, Column] = Map.empty): DataFrame = {
    val joined = tweets.join(broadcast(perId), Seq("id"), "left")
    fills.foldLeft(joined) { case (df, (c, fill)) =>
      df.withColumn(c, coalesce(col(c), fill))
    }
  }

  /** UDF 1 (Figure 6) — stateless safety check: US tweets containing
    * "bomb" are flagged Red.
    */
  def usTweetSafetyCheck(tweets: DataFrame): DataFrame =
    tweets.withColumn("safety_check_flag",
      when(col("country") === "US" && col("text").contains("bomb"), "Red")
        .otherwise("Green"))

  /** UDF 2 (Figure 8) — stateful safety check: a tweet is Red if its
    * country has a sensitive word contained in the tweet text.
    */
  def tweetSafetyCheck(tweets: DataFrame, refs: Refs): DataFrame = {
    val words = refs.sensitiveWords.select(col("country") as "sw_country", col("word"))
    val flagged = tweets
      .join(broadcast(words), col("country") === col("sw_country") && instr(col("text"), col("word")) > 0,
        "left_semi")
      .select(col("id")).distinct().withColumn("__red", lit(true))
    leftEnrich(tweets, flagged)
      .withColumn("safety_check_flag", when(col("__red"), "Red").otherwise("Green"))
      .drop("__red")
  }

  /** Figure 18 — nested-subquery UDF: Red if the tweet's country is among
    * the 10 countries with the most sensitive keywords (ties broken by
    * country code for determinism).
    */
  def highRiskTweetCheck(tweets: DataFrame, refs: Refs): DataFrame = {
    val top10 = refs.sensitiveWords
      .groupBy(col("country") as "sw_country")
      .agg(count(lit(1)) as "cnt")
      .orderBy(desc("cnt"), asc("sw_country"))
      .limit(10)
      .select(col("sw_country"))
    val flagged = tweets
      .join(broadcast(top10), col("country") === col("sw_country"), "left_semi")
      .select(col("id")).withColumn("__red", lit(true))
    leftEnrich(tweets, flagged)
      .withColumn("high_risk_flag", when(col("__red"), "Red").otherwise("Green"))
      .drop("__red")
  }

  /** Use case 1 (Appendix A) — Safety Rating: hash join on country code. */
  def safetyRating(tweets: DataFrame, refs: Refs): DataFrame =
    tweets
      .join(broadcast(refs.safetyRatings), col("country") === col("country_code"), "left")
      .drop("country_code")

  /** Use case 2 (Appendix B) — Religious Population: group-by sum joined on
    * country.
    */
  def religiousPopulation(tweets: DataFrame, refs: Refs): DataFrame = {
    val pops = refs.religiousPopulations
      .groupBy(col("country_name"))
      .agg(sum(col("population")) as "religious_population")
    tweets
      .join(broadcast(pops), col("country") === col("country_name"), "left")
      .drop("country_name")
  }

  /** Use case 3 (Appendix C) — Largest Religions: top-3 religions per
    * country, emitted as an ordered comma-joined string.
    */
  def largestReligions(tweets: DataFrame, refs: Refs): DataFrame = {
    val w = Window.partitionBy(col("country_name"))
      .orderBy(desc("population"), asc("religion_name"))
    val top3 = refs.religiousPopulations
      .withColumn("__rank", row_number().over(w))
      .where(col("__rank") <= 3)
      .groupBy(col("country_name"))
      .agg(rankedConcat(collect_list(struct(col("__rank") as "rank", col("religion_name") as "value")))
        as "largest_religions")
    tweets
      .join(broadcast(top3), col("country") === col("country_name"), "left")
      .drop("country_name")
      .withColumn("largest_religions", coalesce(col("largest_religions"), lit("")))
  }

  /** Use case 4 (Appendix D) — Fuzzy Suspects: similarity join; suspects
    * whose name is within edit distance < 5 of the cleaned screen name.
    * Result: "name:religion" pairs sorted lexicographically.
    */
  def fuzzySuspects(tweets: DataFrame, refs: Refs): DataFrame = {
    val cleaned = tweets.select(col("id"), rsUdf(col("screen_name")) as "__clean")
    val sus = refs.suspects.select(col("sensitive_name"), col("religion_name") as "__srel")
    val matches = cleaned
      .crossJoin(broadcast(sus))
      .where(edUdf(col("__clean"), col("sensitive_name")) < 5)
      .groupBy(col("id"))
      .agg(array_join(array_sort(collect_list(concat_ws(":", col("sensitive_name"), col("__srel")))), ",")
        as "related_suspects")
    leftEnrich(tweets, matches, Map("related_suspects" -> lit("")))
  }

  /** Use case 5 (Appendix E) — Nearby Monuments: monuments within 1.5
    * degrees of the tweet location. `indexed = true` uses the grid-index
    * join (the paper's R-Tree index nested-loop join); `false` is the
    * hint-forced naive join ("Naive Nearby Monuments", §7.4.2).
    */
  def nearbyMonuments(tweets: DataFrame, refs: Refs, indexed: Boolean = true): DataFrame = {
    val probe = tweets.select(col("id"), col("latitude"), col("longitude"))
    val join =
      if (indexed) Spatial.gridJoin(probe, "latitude", "longitude",
        refs.monuments, "monument_x", "monument_y", 1.5)
      else Spatial.naiveJoin(probe, "latitude", "longitude",
        refs.monuments, "monument_x", "monument_y", 1.5)
    val agg = join
      .groupBy(col("id"))
      .agg(array_join(array_sort(collect_list(col("monument_id"))), ",") as "nearby_monuments")
    leftEnrich(tweets, agg, Map("nearby_monuments" -> lit("")))
  }

  /** Use case 6 (Appendix F) — Suspicious Names: nearby facility counts by
    * type, the 3 closest religious buildings within 3 degrees, and suspects
    * sharing the author's name.
    */
  def suspiciousNames(tweets: DataFrame, refs: Refs): DataFrame = {
    val probe = tweets.select(col("id"), col("latitude"), col("longitude"), col("user_name"))

    val facAgg = Spatial.gridJoin(probe, "latitude", "longitude",
        refs.facilities, "facility_x", "facility_y", 3.0)
      .groupBy(col("id"), col("facility_type"))
      .agg(count(lit(1)) as "cnt")
      .groupBy(col("id"))
      .agg(array_join(array_sort(collect_list(concat_ws(":", col("facility_type"), col("cnt")))), ",")
        as "nearby_facilities")

    val nearBuildings = Spatial.gridJoin(probe, "latitude", "longitude",
        refs.religiousBuildings, "building_x", "building_y", 3.0)
      .withColumn("__dist",
        Spatial.distCol(col("latitude"), col("longitude"), col("building_x"), col("building_y")))
    val w = Window.partitionBy(col("id")).orderBy(asc("__dist"), asc("religious_building_id"))
    val bldAgg = nearBuildings
      .withColumn("__rank", row_number().over(w))
      .where(col("__rank") <= 3)
      .groupBy(col("id"))
      .agg(rankedConcat(collect_list(struct(col("__rank") as "rank",
        concat_ws(":", col("religious_building_id"), col("religion_name")) as "value")))
        as "nearby_religious_buildings")

    val susAgg = probe
      .join(broadcast(refs.sensitiveNames), col("user_name") === col("sensitive_name"))
      .groupBy(col("id"))
      .agg(array_join(array_sort(collect_list(concat_ws(":",
        col("suspect_id"), col("religion_name"), col("threat_level")))), ",")
        as "suspicious_users_info")

    val withFacilities = leftEnrich(tweets, facAgg, Map("nearby_facilities" -> lit("")))
    val withBuildings = leftEnrich(withFacilities, bldAgg, Map("nearby_religious_buildings" -> lit("")))
    leftEnrich(withBuildings, susAgg, Map("suspicious_users_info" -> lit("")))
  }

  /** Use case 7 (Appendix G) — Tweet Context: district average income,
    * facility counts per district, and ethnicity distribution of district
    * residents. The reference-to-reference spatial joins (facilities ×
    * districts, residents × districts) are the dominant cost the paper
    * observes for this UDF; a prepared job evaluates them once per version
    * of the stores they read.
    */
  def tweetContext(tweets: DataFrame, refs: Refs): DataFrame = {
    val dist = broadcast(refs.districts)

    val tweetDistrict = tweets.select(col("id"), col("latitude"), col("longitude"))
      .join(dist, Spatial.inRectCol(col("latitude"), col("longitude"),
        col("x_min"), col("y_min"), col("x_max"), col("y_max")), "left")
      .select(col("id"), col("district_area_id"))

    val income = tweetDistrict
      .join(broadcast(refs.averageIncomes.withColumnRenamed("district_area_id", "__d")),
        col("district_area_id") === col("__d"), "left")
      .select(col("id"), col("average_income") as "area_avg_income")

    val facByDistrict = refs.facilities
      .join(dist, Spatial.inRectCol(col("facility_x"), col("facility_y"),
        col("x_min"), col("y_min"), col("x_max"), col("y_max")))
      .groupBy(col("district_area_id"), col("facility_type"))
      .agg(count(lit(1)) as "cnt")
      .groupBy(col("district_area_id"))
      .agg(array_join(array_sort(collect_list(concat_ws(":", col("facility_type"), col("cnt")))), ",")
        as "area_facilities")
      .withColumnRenamed("district_area_id", "__d")
    val facilitiesPerTweet = tweetDistrict
      .join(broadcast(facByDistrict), col("district_area_id") === col("__d"), "left")
      .select(col("id"), col("area_facilities"))

    val ethByDistrict = refs.residents
      .join(dist, Spatial.inRectCol(col("x"), col("y"),
        col("x_min"), col("y_min"), col("x_max"), col("y_max")))
      .groupBy(col("district_area_id"), col("ethnicity"))
      .agg(count(lit(1)) as "cnt")
      .groupBy(col("district_area_id"))
      .agg(array_join(array_sort(collect_list(concat_ws(":", col("ethnicity"), col("cnt")))), ",")
        as "ethnicity_dist")
      .withColumnRenamed("district_area_id", "__d")
    val ethnicityPerTweet = tweetDistrict
      .join(broadcast(ethByDistrict), col("district_area_id") === col("__d"), "left")
      .select(col("id"), col("ethnicity_dist"))

    val withFacilities = leftEnrich(leftEnrich(tweets, income), facilitiesPerTweet,
      Map("area_facilities" -> lit("")))
    leftEnrich(withFacilities, ethnicityPerTweet, Map("ethnicity_dist" -> lit("")))
  }

  /** Use case 8 (Appendix H) — Worrisome Tweets: religions of buildings
    * within 3 degrees, with the count of attacks on that religion in the
    * two months before the tweet. Counts follow the paper's SQL++ exactly:
    * the group-by counts (building × attack) join rows, so multiple nearby
    * buildings of one religion multiply that religion's attack count.
    */
  def worrisomeTweets(tweets: DataFrame, refs: Refs): DataFrame = {
    val probe = tweets.select(col("id"), col("latitude"), col("longitude"), col("created_at"))
    val near = Spatial.gridJoin(probe, "latitude", "longitude",
      refs.religiousBuildings, "building_x", "building_y", 3.0)
    val agg = near
      .join(broadcast(refs.attackEvents), col("religion_name") === col("related_religion"))
      .where(col("created_at") > col("attack_datetime") &&
        col("created_at") < col("attack_datetime") + expr("INTERVAL 2 MONTHS"))
      .groupBy(col("id"), col("religion_name"))
      .agg(count(col("attack_record_id")) as "attack_num")
      .groupBy(col("id"))
      .agg(array_join(array_sort(collect_list(concat_ws(":", col("religion_name"), col("attack_num")))), ",")
        as "nearby_religious_attacks")
    leftEnrich(tweets, agg, Map("nearby_religious_attacks" -> lit("")))
  }

  /** Registry used by the framework, jobs, and benches. Names follow the
    * paper's use-case numbering.
    */
  val byName: Map[String, (DataFrame, Refs) => DataFrame] = Map(
    "us_safety_check" -> ((t, _) => usTweetSafetyCheck(t)),
    "tweet_safety_check" -> (tweetSafetyCheck(_, _)),
    "high_risk_check" -> (highRiskTweetCheck(_, _)),
    "safety_rating" -> (safetyRating(_, _)),
    "religious_population" -> (religiousPopulation(_, _)),
    "largest_religions" -> (largestReligions(_, _)),
    "fuzzy_suspects" -> (fuzzySuspects(_, _)),
    "nearby_monuments" -> ((t, r) => nearbyMonuments(t, r, indexed = true)),
    "naive_nearby_monuments" -> ((t, r) => nearbyMonuments(t, r, indexed = false)),
    "suspicious_names" -> (suspiciousNames(_, _)),
    "tweet_context" -> (tweetContext(_, _)),
    "worrisome_tweets" -> (worrisomeTweets(_, _)))
}
