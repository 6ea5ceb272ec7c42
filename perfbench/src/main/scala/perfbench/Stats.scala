package perfbench

object Stats {

  /** Linearly interpolated quantile of `xs` (numpy's default rule). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val a = xs.sorted
    val pos = q * (a.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, a.size - 1)
    a(lo) + (pos - lo) * (a(hi) - a(lo))
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Quantile of timing samples, the rule of every end-to-end timing
    * metric. Each sample `x` stands for a true value somewhere in
    * `[x, x + resolution)` and is spread evenly over it before the quantile
    * is read: `IngestionReport.batchDurationsMs` truncates to whole ms
    * (resolution 1), the benchmark's own clock reads ns (resolution 1e-6).
    * Ties at whole ms thus still read between them.
    */
  def timingQuantile(xs: Seq[Double], q: Double, resolution: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val a = xs.sorted.toIndexedSeq
    val target = q * a.size
    val v = a(math.min(math.floor(target).toInt, a.size - 1))
    val below = a.indexWhere(_ == v)
    val equal = a.count(_ == v)
    v + resolution * math.min(1.0, (target - below) / equal)
  }

  /** Samples strictly beyond quantile `q`, for the tail rule. */
  def beyond(n: Int, q: Double): Int = n - math.ceil(q * n).toInt
}
