package repro.bench

import repro.core._
import repro.data.TweetData

import org.apache.spark.sql.SparkSession

/** Shared helpers for the figure benches: table printing and a standard
  * framework runner. Bench suites print the same rows the paper's figures
  * plot; EXPERIMENTS.md records paper-vs-measured.
  */
object BenchUtil {

  def banner(title: String): Unit = {
    println()
    println(s"=== $title ===")
  }

  def row(cells: Any*): Unit =
    println(cells.map {
      case d: Double => f"$d%.1f"
      case x => x.toString
    }.mkString(" | "))

  /** Run one ingestion configuration and return its report. */
  def run(spark: SparkSession, n: Int, batch: Int, spec: EnrichmentSpec,
          mode: RefreshMode, stores: RefStoreSet,
          onBatchDone: Int => Unit = _ => ()): IngestionReport =
    IngestionFramework.run(spark, TweetData.localTweets(n), batch, spec, mode, stores,
      onBatchDone = onBatchDone)

  /** The median of `xs`: the mean of the two middle values of an even count. */
  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    (s((s.size - 1) / 2) + s(s.size / 2)) / 2
  }

  /** The five Figure-25 use cases (paper §7.2). */
  val simpleUdfs: Seq[String] = Seq(
    "safety_rating", "religious_population", "largest_religions",
    "fuzzy_suspects", "nearby_monuments")

  /** The four Figure-29 use cases (paper §7.4.2; monuments is the carryover
    * baseline).
    */
  val complexUdfs: Seq[String] = Seq(
    "nearby_monuments", "suspicious_names", "tweet_context", "worrisome_tweets")

  val batchSizes: Seq[Int] = Seq(420, 1680, 6720)

  def batchLabel(b: Int): String = b match {
    case 420 => "1X"; case 1680 => "4X"; case 6720 => "16X"; case other => other.toString
  }
}
