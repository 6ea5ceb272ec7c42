package repro.data

import repro.SparkSpec
import repro.core.RefStoreSet

/** Generator invariants: determinism, schemas, cardinalities, value
  * domains, and the district tiling property the Tweet Context use case
  * depends on.
  */
class TweetDataSpec extends SparkSpec {

  test("localTweets is deterministic in (n, seed)") {
    assert(TweetData.localTweets(200, 42) == TweetData.localTweets(200, 42))
  }

  test("localTweets differs across seeds") {
    assert(TweetData.localTweets(200, 1) != TweetData.localTweets(200, 2))
  }

  test("tweet ids are 0..n-1") {
    val ts = TweetData.localTweets(100)
    assert(ts.map(_.id) == (0L until 100L))
  }

  test("tweet countries come from the country list") {
    val ts = TweetData.localTweets(500)
    assert(ts.forall(t => TweetData.countries.contains(t.country)))
  }

  test("US appears among tweet countries at 500 tweets") {
    assert(TweetData.localTweets(500).exists(_.country == "US"))
  }

  test("tweet coordinates lie in the world") {
    val ts = TweetData.localTweets(500)
    assert(ts.forall(t => t.latitude >= 0 && t.latitude < TweetData.WorldSize))
    assert(ts.forall(t => t.longitude >= 0 && t.longitude < TweetData.WorldSize))
  }

  test("some tweets embed a sensitive keyword") {
    val ts = TweetData.localTweets(2000)
    val n = ts.count(t => TweetData.sensitivePool.exists(t.text.contains))
    assert(n > 20, s"expected ~5% sensitive tweets, got $n/2000")
  }

  test("created_at days avoid month-arithmetic clamping (day <= 27)") {
    val ts = TweetData.localTweets(500)
    assert(ts.forall(_.created_at.toLocalDateTime.getDayOfMonth <= 27))
  }

  test("tweets DataFrame has the expected schema") {
    val df = TweetData.tweets(spark, 10)
    assert(df.columns.toSeq == Seq("id", "text", "country", "latitude",
      "longitude", "created_at", "user_name", "screen_name"))
    assert(df.count() == 10)
  }

  test("sensitive words use known countries and pool words") {
    val ws = TweetData.localSensitiveWords(100)
    assert(ws.forall(w => TweetData.countries.contains(w.country)))
    assert(ws.forall(w => TweetData.sensitivePool.contains(w.word)))
  }

  test("safety ratings have distinct primary keys") {
    val rs = TweetData.localSafetyRatings(400)
    assert(rs.map(_.country_code).distinct.size == 400)
  }

  test("safety ratings cover every tweet country when n >= NCountries") {
    val codes = TweetData.localSafetyRatings(TweetData.NCountries).map(_.country_code).toSet
    assert(TweetData.countries.forall(codes.contains))
  }

  test("religious populations are positive") {
    assert(TweetData.localReligiousPopulations(300).forall(_.population > 0))
  }

  test("religious populations have distinct rids") {
    val ps = TweetData.localReligiousPopulations(300)
    assert(ps.map(_.rid).distinct.size == 300)
  }

  test("suspects have names within a few edits of the name pool") {
    val ss = TweetData.localSuspects(100)
    assert(ss.forall(_.sensitive_name.nonEmpty))
    assert(ss.map(_.suspect_id).distinct.size == 100)
  }

  test("monuments lie in the world") {
    val ms = TweetData.localMonuments(300)
    assert(ms.forall(m => m.monument_x >= 0 && m.monument_x < TweetData.WorldSize))
  }

  test("district tiling: every point belongs to exactly one district") {
    val ds = TweetData.localDistricts(500)
    val probes = TweetData.localTweets(300)
    probes.foreach { t =>
      val owners = ds.filter(d =>
        t.latitude >= d.x_min && t.latitude < d.x_max &&
        t.longitude >= d.y_min && t.longitude < d.y_max)
      assert(owners.size == 1, s"tweet ${t.id} at (${t.latitude},${t.longitude}) in ${owners.size} districts")
    }
  }

  test("district tiling holds for non-square counts") {
    for (n <- Seq(1, 2, 7, 50, 499)) {
      val ds = TweetData.localDistricts(n)
      assert(ds.size == n, s"n=$n produced ${ds.size} districts")
      val corner = (0.0, 0.0)
      assert(ds.count(d => corner._1 >= d.x_min && corner._1 < d.x_max &&
        corner._2 >= d.y_min && corner._2 < d.y_max) == 1)
    }
  }

  test("average incomes exist for every district") {
    val ids = TweetData.localDistricts(50).map(_.district_area_id).toSet
    val inc = TweetData.localAverageIncomes(50)
    assert(inc.map(_.district_area_id).toSet == ids)
  }

  test("residents carry known ethnicities") {
    assert(TweetData.localResidents(300).forall(r => TweetData.ethnicities.contains(r.ethnicity)))
  }

  test("attack events reference known religions") {
    assert(TweetData.localAttackEvents(200).forall(a => TweetData.religions.contains(a.related_religion)))
  }

  test("attack datetimes avoid clamping days") {
    assert(TweetData.localAttackEvents(200).forall(_.attack_datetime.toLocalDateTime.getDayOfMonth <= 27))
  }

  test("facilities use known types") {
    assert(TweetData.localFacilities(200).forall(f => TweetData.facilityTypes.contains(f.facility_type)))
  }

  test("reference DataFrames materialize with requested cardinalities") {
    val stores = RefStoreSet.create(spark, nSensitiveWords = 40, nSafetyRatings = 10,
      nReligiousPopulations = 10, nSuspects = 10, nMonuments = 60, nReligiousBuildings = 10,
      nFacilities = 10, nSensitiveNames = 10, nDistricts = 50, nResidents = 10, nAttackEvents = 30)
    assert(stores.sensitiveWords.snapshot().count() == 40)
    assert(stores.monuments.snapshot().count() == 60)
    assert(stores.districts.snapshot().count() == 50)
    assert(stores.attackEvents.snapshot().count() == 30)
  }
}
