package repro.spatial

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Spatial substrate for the monument / facility / district use cases.
  *
  * AsterixDB provides `point`/`circle`/`rectangle` ADM types, a
  * `spatial_intersect` builtin, and an R-Tree index enabling index
  * nested-loop spatial joins. Here points are `(x, y)` double columns,
  * predicates are column expressions over them, and the index analog is a
  * uniform grid: `gridJoin` buckets reference points into radius-sized cells
  * and probes only the 3x3 neighborhood of each query point — the same
  * candidate-pruning role the paper's R-Tree plays — while `naiveJoin` is
  * the hint-forced cross product + filter ("Naive Nearby Monuments").
  * Both joins broadcast the reference side.
  */
object Spatial {

  /** Euclidean distance between two points (the paper's "degrees"). */
  def distance(ax: Double, ay: Double, bx: Double, by: Double): Double =
    math.hypot(ax - bx, ay - by)

  /** `spatial_intersect(point, circle)`: point within `r` of the center. */
  def circleContains(cx: Double, cy: Double, r: Double, px: Double, py: Double): Boolean =
    distance(cx, cy, px, py) <= r

  /** `spatial_intersect(point, rectangle)` with half-open semantics so grid
    * districts partition the plane.
    */
  def rectContains(xMin: Double, yMin: Double, xMax: Double, yMax: Double,
                   px: Double, py: Double): Boolean =
    px >= xMin && px < xMax && py >= yMin && py < yMax

  /** Column form of [[distance]]. */
  def distCol(ax: Column, ay: Column, bx: Column, by: Column): Column =
    sqrt(pow(ax - bx, 2) + pow(ay - by, 2))

  /** Column form of the point-in-circle predicate. */
  def withinCol(ax: Column, ay: Column, bx: Column, by: Column, r: Double): Column =
    distCol(ax, ay, bx, by) <= lit(r)

  /** Column form of the point-in-rectangle predicate (half-open). */
  def inRectCol(px: Column, py: Column, xMin: Column, yMin: Column,
                xMax: Column, yMax: Column): Column =
    px >= xMin && px < xMax && py >= yMin && py < yMax

  /** Cross-product spatial join: every (probe, ref) pair within `r`.
    * Output: all probe columns + all ref columns, one row per matching pair.
    */
  def naiveJoin(probe: DataFrame, px: String, py: String,
                ref: DataFrame, rx: String, ry: String, r: Double): DataFrame =
    probe.crossJoin(broadcast(ref))
      .where(withinCol(col(px), col(py), col(rx), col(ry), r))

  /** Grid-indexed spatial join, equivalent to [[naiveJoin]] but pruning by
    * radius-sized grid cells: a point at cell (cx, cy) can only match ref
    * points in the 3x3 neighborhood of that cell. Both sides keep all of
    * their columns; internal cell columns are dropped from the output.
    */
  def gridJoin(probe: DataFrame, px: String, py: String,
               ref: DataFrame, rx: String, ry: String, r: Double): DataFrame = {
    require(r > 0, s"radius must be positive, got $r")
    val cell = lit(r)
    // Reference points land in their own cell; probe points explode to the
    // 3x3 neighborhood so every candidate within r shares a join key.
    val refCells = broadcast(ref)
      .withColumn("__rcx", floor(col(rx) / cell))
      .withColumn("__rcy", floor(col(ry) / cell))
    val offsets = array((-1 to 1).flatMap(dx => (-1 to 1).map(dy => struct(lit(dx) as "dx", lit(dy) as "dy"))): _*)
    val probeCells = probe
      .withColumn("__o", explode(offsets))
      .withColumn("__pcx", floor(col(px) / cell) + col("__o.dx"))
      .withColumn("__pcy", floor(col(py) / cell) + col("__o.dy"))
      .drop("__o")
    probeCells
      .join(refCells, col("__pcx") === col("__rcx") && col("__pcy") === col("__rcy"))
      .where(withinCol(col(px), col(py), col(rx), col(ry), r))
      .drop("__pcx", "__pcy", "__rcx", "__rcy")
  }
}
