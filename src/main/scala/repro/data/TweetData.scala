package repro.data

import java.sql.Timestamp
import scala.util.Random

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A synthetic tweet record (~450 bytes serialized, matching the paper's
  * feed records). Coordinates live in the [0,100]x[0,100] "world" shared by
  * all spatial reference datasets.
  */
case class Tweet(
    id: Long,
    text: String,
    country: String,
    latitude: Double,
    longitude: Double,
    created_at: Timestamp,
    user_name: String,
    screen_name: String)

/** SensitiveWords reference dataset (SQL++ UDF 2, Figure 8). */
case class SensitiveWord(swid: String, country: String, word: String)

/** SafetyRatings reference dataset (use case 1, Appendix A). */
case class SafetyRating(country_code: String, safety_rating: String)

/** ReligiousPopulations reference dataset (use cases 2 and 3, Appendix B/C). */
case class ReligiousPopulation(rid: String, country_name: String, religion_name: String, population: Long)

/** SuspectsNames / SensitiveNames reference datasets (use cases 4 and 6). */
case class SuspectName(suspect_id: String, sensitive_name: String, religion_name: String, threat_level: Int)

/** MonumentList reference dataset (use case 5, Appendix E). Points are two
  * double columns instead of an ADM `point` type.
  */
case class Monument(monument_id: String, monument_x: Double, monument_y: Double)

/** ReligiousBuildings reference dataset (use cases 6 and 8, Appendix F/H). */
case class ReligiousBuilding(
    religious_building_id: String,
    religion_name: String,
    building_x: Double,
    building_y: Double,
    registered_believer: Long)

/** Facilities reference dataset (use cases 6 and 7, Appendix F/G). */
case class Facility(facility_id: String, facility_x: Double, facility_y: Double, facility_type: String)

/** DistrictAreas reference dataset (use case 7, Appendix G). Rectangles are
  * four double columns; districts tile the world so every point falls in
  * exactly one district.
  */
case class DistrictArea(
    district_area_id: String,
    x_min: Double,
    y_min: Double,
    x_max: Double,
    y_max: Double)

/** AverageIncomes reference dataset (use case 7, Appendix G). */
case class AverageIncome(district_area_id: String, average_income: Double)

/** Residents ("Persons") reference dataset (use case 7, Appendix G). */
case class Resident(person_id: String, ethnicity: String, x: Double, y: Double)

/** AttackEvents reference dataset (use case 8, Appendix H). */
case class AttackEvent(
    attack_record_id: String,
    attack_datetime: Timestamp,
    attack_x: Double,
    attack_y: Double,
    related_religion: String)

/** Deterministic generators for the tweet stream and every reference dataset
  * of the paper's Section 7 evaluation. All generators are pure in
  * (n, seed): the feed, the enrichment pipeline, and the DuckDB oracle all
  * see identical data.
  *
  * Cardinalities are chosen by the caller; DESIGN.md §5 records the
  * paper-to-bench scale map.
  */
object TweetData {

  /** World extent for all spatial data. */
  val WorldSize = 100.0

  /** Number of distinct country codes ("US" plus C001..C199). */
  val NCountries = 200

  val countries: IndexedSeq[String] =
    "US" +: (1 until NCountries).map(i => f"C$i%03d")

  val religions: IndexedSeq[String] =
    Vector("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
           "theta", "iota", "kappa", "lambda", "mu")

  val facilityTypes: IndexedSeq[String] =
    Vector("school", "hospital", "stadium", "airport", "mall", "station", "park", "museum")

  val ethnicities: IndexedSeq[String] =
    Vector("eth_a", "eth_b", "eth_c", "eth_d", "eth_e", "eth_f")

  /** Pool of "sensitive" keywords that may appear in tweet text and in the
    * SensitiveWords dataset.
    */
  val sensitivePool: IndexedSeq[String] =
    Vector("bomb", "attack", "threat", "riot", "hostage", "siege", "raid",
           "blast", "ambush", "sabotage", "arson", "heist", "smuggle",
           "plot", "cartel", "militia")

  private val wordPool: IndexedSeq[String] =
    (0 until 800).map(i => f"word$i%03d")

  private val namePool: IndexedSeq[String] =
    (0 until 2000).map(i => f"name$i%04d")

  private def ts(rng: Random): Timestamp =
    // Days 1..27 of months in 2019 — avoids calendar-clamping edge cases in
    // month-interval arithmetic (kept identical between Spark and DuckDB).
    Timestamp.valueOf(f"2019-${rng.nextInt(10) + 1}%02d-${rng.nextInt(27) + 1}%02d " +
      f"${rng.nextInt(24)}%02d:${rng.nextInt(60)}%02d:${rng.nextInt(60)}%02d")

  /** Generate `n` tweets locally (for the feed source and small oracle
    * tests). ~5% of tweets embed a sensitive keyword; ~2% embed a suspect
    * name as the screen name (fuels the similarity join).
    */
  def localTweets(n: Int, seed: Long = 7): IndexedSeq[Tweet] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      val country = countries(rng.nextInt(NCountries))
      val nWords  = 6 + rng.nextInt(7)
      val base    = Seq.fill(nWords)(wordPool(rng.nextInt(wordPool.size)))
      val words =
        if (rng.nextDouble() < 0.05) rng.shuffle(base :+ sensitivePool(rng.nextInt(sensitivePool.size)))
        else base
      val uname = namePool(rng.nextInt(namePool.size))
      val screen =
        if (rng.nextDouble() < 0.3) s"${uname}_${rng.nextInt(100)}" else s"@$uname!"
      Tweet(
        id = i.toLong,
        text = words.mkString(" "),
        country = country,
        latitude = rng.nextDouble() * WorldSize,
        longitude = rng.nextDouble() * WorldSize,
        created_at = ts(rng),
        user_name = uname,
        screen_name = screen)
    }
  }

  def tweets(spark: SparkSession, n: Int, seed: Long = 7): DataFrame = {
    import spark.implicits._
    localTweets(n, seed).toDF()
  }

  // --- Reference datasets -------------------------------------------------

  def localSensitiveWords(n: Int, seed: Long = 11): IndexedSeq[SensitiveWord] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      SensitiveWord(
        swid = f"sw$i%06d",
        country = countries(rng.nextInt(NCountries)),
        word = sensitivePool(rng.nextInt(sensitivePool.size)))
    }
  }

  def localSafetyRatings(n: Int, seed: Long = 13): IndexedSeq[SafetyRating] = {
    val rng = new Random(seed)
    // Primary key is country_code; generate n distinct codes (cycling past
    // the tweet country list — extra rows simply never join).
    (0 until n).map { i =>
      val code = if (i < NCountries) countries(i) else f"X$i%06d"
      SafetyRating(code, Seq("A", "B", "C", "D", "E")(rng.nextInt(5)))
    }
  }

  def localReligiousPopulations(n: Int, seed: Long = 17): IndexedSeq[ReligiousPopulation] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      ReligiousPopulation(
        rid = f"rp$i%06d",
        country_name = countries(rng.nextInt(NCountries)),
        religion_name = religions(rng.nextInt(religions.size)),
        population = 1000L + rng.nextInt(1_000_000))
    }
  }

  def localSuspects(n: Int, seed: Long = 19): IndexedSeq[SuspectName] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      // Suspect names are drawn from the same pool as tweet user names, with
      // occasional single-character perturbations so edit distances spread
      // over 0..5+.
      val base = namePool(rng.nextInt(namePool.size))
      val nm = rng.nextInt(4) match {
        case 0 => base
        case 1 => base.dropRight(1)
        case 2 => base + rng.nextInt(10)
        case _ => base.updated(rng.nextInt(base.length), 'x')
      }
      SuspectName(
        suspect_id = f"s$i%07d",
        sensitive_name = nm,
        religion_name = religions(rng.nextInt(religions.size)),
        threat_level = 1 + rng.nextInt(5))
    }
  }

  def localMonuments(n: Int, seed: Long = 23): IndexedSeq[Monument] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      Monument(f"m$i%06d", rng.nextDouble() * WorldSize, rng.nextDouble() * WorldSize)
    }
  }

  def localReligiousBuildings(n: Int, seed: Long = 29): IndexedSeq[ReligiousBuilding] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      ReligiousBuilding(
        religious_building_id = f"rb$i%06d",
        religion_name = religions(rng.nextInt(religions.size)),
        building_x = rng.nextDouble() * WorldSize,
        building_y = rng.nextDouble() * WorldSize,
        registered_believer = 10L + rng.nextInt(100000))
    }
  }

  def localFacilities(n: Int, seed: Long = 31): IndexedSeq[Facility] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      Facility(
        facility_id = f"f$i%06d",
        facility_x = rng.nextDouble() * WorldSize,
        facility_y = rng.nextDouble() * WorldSize,
        facility_type = facilityTypes(rng.nextInt(facilityTypes.size)))
    }
  }

  /** Districts tile the world exactly: the y-axis is cut into
    * `rows = floor(sqrt(n))` horizontal bands, and band `r` is cut into
    * `n/rows` (+1 for the first `n % rows` bands) equal-width cells, so the
    * band widths differ but coverage is exact for any `n`. Every world
    * point belongs to exactly one district under the half-open containment
    * rule `min <= v < max`.
    */
  def localDistricts(n: Int): IndexedSeq[DistrictArea] = {
    require(n >= 1, s"need at least one district, got $n")
    val rows = math.max(1, math.sqrt(n.toDouble).toInt)
    val baseCols = n / rows
    val extra = n % rows
    val h = WorldSize / rows
    var i = -1
    (for (r <- 0 until rows) yield {
      val cols = baseCols + (if (r < extra) 1 else 0)
      val w = WorldSize / cols
      val yMax = if (r == rows - 1) WorldSize else (r + 1) * h
      (0 until cols).map { c =>
        i += 1
        val xMax = if (c == cols - 1) WorldSize else (c + 1) * w
        DistrictArea(f"d$i%05d", c * w, r * h, xMax, yMax)
      }
    }).flatten.toIndexedSeq
  }

  def localAverageIncomes(nDistricts: Int, seed: Long = 37): IndexedSeq[AverageIncome] = {
    val rng = new Random(seed)
    localDistricts(nDistricts).map(d => AverageIncome(d.district_area_id, 20000.0 + rng.nextInt(80000)))
  }

  def localResidents(n: Int, seed: Long = 41): IndexedSeq[Resident] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      Resident(
        person_id = f"p$i%08d",
        ethnicity = ethnicities(rng.nextInt(ethnicities.size)),
        x = rng.nextDouble() * WorldSize,
        y = rng.nextDouble() * WorldSize)
    }
  }

  def localAttackEvents(n: Int, seed: Long = 43): IndexedSeq[AttackEvent] = {
    val rng = new Random(seed)
    (0 until n).map { i =>
      AttackEvent(
        attack_record_id = f"a$i%06d",
        attack_datetime = ts(rng),
        attack_x = rng.nextDouble() * WorldSize,
        attack_y = rng.nextDouble() * WorldSize,
        related_religion = religions(rng.nextInt(religions.size)))
    }
  }
}
