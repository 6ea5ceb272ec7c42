package repro.spatial

import org.apache.spark.sql.functions.col

import repro.SparkSpec
import repro.data.TweetData

/** Grid-join ≡ naive-join equivalence across a radius/seed grid — the
  * property that licenses using the grid index everywhere the paper uses
  * its R-Tree.
  */
class GridJoinPropertySpec extends SparkSpec {

  private def pairs(df: org.apache.spark.sql.DataFrame): Set[(Long, String)] =
    df.select(col("id"), col("monument_id")).collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet

  for (radius <- Seq(0.5, 1.0, 2.0, 4.0, 8.0); seed <- Seq(1L, 2L)) {
    test(f"gridJoin == naiveJoin at radius $radius%.1f (seed $seed)") {
      val probe = TweetData.tweets(spark, 120, seed = seed).select("id", "latitude", "longitude")
      val ref = spark.createDataFrame(TweetData.localMonuments(150, seed = seed + 100))
      val g = Spatial.gridJoin(probe, "latitude", "longitude", ref, "monument_x", "monument_y", radius)
      val nv = Spatial.naiveJoin(probe, "latitude", "longitude", ref, "monument_x", "monument_y", radius)
      assert(pairs(g) == pairs(nv))
    }
  }

  test("edit-distance table of known values") {
    import repro.text.Text.editDistance
    val cases = Seq(
      ("", "", 0), ("a", "", 1), ("", "a", 1), ("a", "a", 0), ("a", "b", 1),
      ("ab", "ba", 2), ("abc", "abc", 0), ("abc", "acb", 2), ("sunday", "saturday", 3),
      ("flaw", "lawn", 2), ("intention", "execution", 5), ("gumbo", "gambol", 2),
      ("book", "back", 2), ("kitten", "sitting", 3), ("distance", "editing", 5))
    cases.foreach { case (a, b, d) =>
      assert(editDistance(a, b) == d, s"editDistance($a, $b)")
    }
  }
}
