package repro.spatial

import scala.util.Random

import org.apache.spark.sql.functions.col

import repro.SparkSpec
import repro.data.TweetData

/** Geometry math and the equivalence of the grid-indexed spatial join with
  * the naive cross-product join (the core claim that makes `gridJoin` a
  * valid index analog).
  */
class SpatialSpec extends SparkSpec {

  test("distance of identical points is 0") {
    assert(Spatial.distance(3.0, 4.0, 3.0, 4.0) == 0.0)
  }

  test("distance is the 3-4-5 triangle") {
    assert(math.abs(Spatial.distance(0, 0, 3, 4) - 5.0) < 1e-12)
  }

  test("distance is symmetric (property)") {
    val rng = new Random(1)
    (1 to 200).foreach { _ =>
      val (ax, ay, bx, by) = (rng.nextDouble() * 100, rng.nextDouble() * 100,
        rng.nextDouble() * 100, rng.nextDouble() * 100)
      assert(Spatial.distance(ax, ay, bx, by) == Spatial.distance(bx, by, ax, ay))
    }
  }

  test("circleContains at exact radius boundary") {
    assert(Spatial.circleContains(0, 0, 5.0, 3, 4))
    assert(!Spatial.circleContains(0, 0, 4.999, 3, 4))
  }

  test("rectContains uses half-open semantics") {
    assert(Spatial.rectContains(0, 0, 10, 10, 0, 0))
    assert(!Spatial.rectContains(0, 0, 10, 10, 10, 0))
    assert(!Spatial.rectContains(0, 0, 10, 10, 0, 10))
    assert(Spatial.rectContains(0, 0, 10, 10, 9.999, 9.999))
  }

  test("withinCol matches scalar circleContains (property)") {
    import spark.implicits._
    val rng = new Random(2)
    val pts = (1 to 200).map(_ => (rng.nextDouble() * 10, rng.nextDouble() * 10,
      rng.nextDouble() * 10, rng.nextDouble() * 10))
    val df = pts.toDF("ax", "ay", "bx", "by")
      .withColumn("w", Spatial.withinCol(col("ax"), col("ay"), col("bx"), col("by"), 3.0))
    val got = df.collect().map(r => r.getBoolean(4))
    val exp = pts.map { case (ax, ay, bx, by) => Spatial.circleContains(ax, ay, 3.0, bx, by) }
    assert(got.toSeq == exp)
  }

  test("inRectCol matches scalar rectContains (property)") {
    import spark.implicits._
    val rng = new Random(3)
    val pts = (1 to 200).map(_ => (rng.nextDouble() * 10, rng.nextDouble() * 10))
    val df = pts.toDF("px", "py")
      .withColumn("w", Spatial.inRectCol(col("px"), col("py"),
        org.apache.spark.sql.functions.lit(2.0), org.apache.spark.sql.functions.lit(2.0),
        org.apache.spark.sql.functions.lit(7.0), org.apache.spark.sql.functions.lit(7.0)))
    val got = df.collect().map(_.getBoolean(2))
    val exp = pts.map { case (px, py) => Spatial.rectContains(2, 2, 7, 7, px, py) }
    assert(got.toSeq == exp)
  }

  private def joinPairs(df: org.apache.spark.sql.DataFrame): Set[(Long, String)] =
    df.select(col("id"), col("monument_id")).collect()
      .map(r => (r.getLong(0), r.getString(1))).toSet

  test("gridJoin equals naiveJoin at radius 1.5") {
    val probe = TweetData.tweets(spark, 300).select("id", "latitude", "longitude")
    val ref = spark.createDataFrame(TweetData.localMonuments(400))
    val g = Spatial.gridJoin(probe, "latitude", "longitude", ref, "monument_x", "monument_y", 1.5)
    val n = Spatial.naiveJoin(probe, "latitude", "longitude", ref, "monument_x", "monument_y", 1.5)
    assert(joinPairs(g) == joinPairs(n))
    assert(joinPairs(g).nonEmpty, "degenerate test: no pairs within 1.5")
  }

  test("gridJoin equals naiveJoin at radius 3.0") {
    val probe = TweetData.tweets(spark, 200).select("id", "latitude", "longitude")
    val ref = spark.createDataFrame(TweetData.localMonuments(300))
    val g = Spatial.gridJoin(probe, "latitude", "longitude", ref, "monument_x", "monument_y", 3.0)
    val n = Spatial.naiveJoin(probe, "latitude", "longitude", ref, "monument_x", "monument_y", 3.0)
    assert(joinPairs(g) == joinPairs(n))
  }

  test("gridJoin equals naiveJoin at a radius larger than cells near edges") {
    val probe = TweetData.tweets(spark, 100, seed = 9).select("id", "latitude", "longitude")
    val ref = spark.createDataFrame(TweetData.localMonuments(150, seed = 10))
    val g = Spatial.gridJoin(probe, "latitude", "longitude", ref, "monument_x", "monument_y", 12.5)
    val n = Spatial.naiveJoin(probe, "latitude", "longitude", ref, "monument_x", "monument_y", 12.5)
    assert(joinPairs(g) == joinPairs(n))
  }

  test("gridJoin emits no duplicate pairs") {
    val probe = TweetData.tweets(spark, 200).select("id", "latitude", "longitude")
    val ref = spark.createDataFrame(TweetData.localMonuments(300))
    val g = Spatial.gridJoin(probe, "latitude", "longitude", ref, "monument_x", "monument_y", 1.5)
    assert(g.count() == joinPairs(g).size)
  }

  test("gridJoin drops its internal cell columns") {
    val probe = TweetData.tweets(spark, 10).select("id", "latitude", "longitude")
    val ref = spark.createDataFrame(TweetData.localMonuments(10))
    val g = Spatial.gridJoin(probe, "latitude", "longitude", ref, "monument_x", "monument_y", 1.5)
    assert(!g.columns.exists(_.startsWith("__")))
  }

  test("gridJoin rejects non-positive radius") {
    val probe = TweetData.tweets(spark, 5).select("id", "latitude", "longitude")
    val ref = spark.createDataFrame(TweetData.localMonuments(5))
    intercept[IllegalArgumentException] {
      Spatial.gridJoin(probe, "latitude", "longitude", ref, "monument_x", "monument_y", 0.0)
    }
  }

  test("naiveJoin with no matches is empty") {
    import spark.implicits._
    val probe = Seq((1L, 0.0, 0.0)).toDF("id", "latitude", "longitude")
    val ref = Seq(("m1", 50.0, 50.0)).toDF("monument_id", "monument_x", "monument_y")
    assert(Spatial.naiveJoin(probe, "latitude", "longitude", ref, "monument_x", "monument_y", 1.0).count() == 0)
  }

  test("gridJoin finds a cross-cell boundary match") {
    import spark.implicits._
    // Points in adjacent cells, within radius: 1.49 apart across a boundary.
    val probe = Seq((1L, 1.4, 0.0)).toDF("id", "latitude", "longitude")
    val ref = Seq(("m1", 1.6, 0.0)).toDF("monument_id", "monument_x", "monument_y")
    val g = Spatial.gridJoin(probe, "latitude", "longitude", ref, "monument_x", "monument_y", 1.5)
    assert(g.count() == 1)
  }
}
