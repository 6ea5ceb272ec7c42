package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, udf}

import repro.spatial.Spatial
import repro.text.Text

/** The paper's *Java UDF* evaluation model: per-record functions over
  * in-memory state loaded from resource files at initialization (Figure 7).
  *
  * Here "initialization" is [[compile]] — it collects the needed reference
  * snapshot into plain Scala structures (hash maps, arrays), and the
  * returned closure enriches records one at a time, exactly like
  * `evaluate(IFunctionHelper)`. A **static** pipeline compiles once at feed
  * start (stale state forever, the current-AsterixDB baseline); a
  * **dynamic** pipeline re-compiles whenever a reference store's version
  * has changed since the previous computing job (reference updates visible
  * per batch).
  *
  * Per the paper, the Java monument lookup has no R-Tree: it scans the full
  * monument array per record, which is why the indexed SQL++ variant beats
  * it in Figure 25.
  *
  * Output formats match the SQL++ analogs in [[Enrichments]] exactly, so
  * tests can assert Java ≡ SQL++ row-for-row.
  */
object JavaUdfs {

  /** Use cases with a Java implementation (the paper benchmarks Java for
    * use cases 1–5 plus the UDF-2 safety check).
    */
  val supported: Set[String] = Set(
    "tweet_safety_check", "high_risk_check", "safety_rating",
    "religious_population", "largest_religions", "fuzzy_suspects",
    "nearby_monuments")

  /** The named columns of every row of `df`, picked on the driver. A
    * reference snapshot is a local scan, which serves a whole-frame
    * `collect()` without a Spark job; collecting a projection of it would
    * run one.
    */
  private def columns(df: DataFrame, names: String*): Array[Row] = {
    val idx = names.map(df.schema.fieldIndex)
    df.collect().map(r => Row.fromSeq(idx.map(r.get)))
  }

  def compile(name: String, refs: Refs): DataFrame => DataFrame = name match {
    case "tweet_safety_check" =>
      // Figure 7: country -> keyword list.
      val kw = columns(refs.sensitiveWords, "country", "word")
        .groupBy(_.getString(0)).view.mapValues(_.map(_.getString(1)).toVector).toMap
      val f = udf((country: String, text: String) =>
        if (kw.getOrElse(country, Vector.empty).exists(text.contains)) "Red" else "Green")
      df => df.withColumn("safety_check_flag", f(col("country"), col("text")))

    case "high_risk_check" =>
      val top10 = columns(refs.sensitiveWords, "country")
        .groupBy(_.getString(0)).view.mapValues(_.size).toSeq
        .sortBy { case (c, n) => (-n, c) }.take(10).map(_._1).toSet
      val f = udf((country: String) => if (top10.contains(country)) "Red" else "Green")
      df => df.withColumn("high_risk_flag", f(col("country")))

    case "safety_rating" =>
      val m = columns(refs.safetyRatings, "country_code", "safety_rating")
        .map(r => r.getString(0) -> r.getString(1)).toMap
      val f = udf((country: String) => m.get(country))
      df => df.withColumn("safety_rating", f(col("country")))

    case "religious_population" =>
      val m = columns(refs.religiousPopulations, "country_name", "population")
        .groupBy(_.getString(0)).view.mapValues(_.map(_.getLong(1)).sum).toMap
      val f = udf((country: String) => m.get(country))
      df => df.withColumn("religious_population", f(col("country")))

    case "largest_religions" =>
      val m = columns(refs.religiousPopulations, "country_name", "religion_name", "population")
        .groupBy(_.getString(0)).view.mapValues { rows =>
          rows.map(r => (r.getString(1), r.getLong(2)))
            .sortBy { case (rel, pop) => (-pop, rel) }
            .take(3).map(_._1).mkString(",")
        }.toMap
      val f = udf((country: String) => m.getOrElse(country, ""))
      df => df.withColumn("largest_religions", f(col("country")))

    case "fuzzy_suspects" =>
      val suspects = columns(refs.suspects, "sensitive_name", "religion_name")
        .map(r => (r.getString(0), r.getString(1)))
      val f = udf { (screenName: String) =>
        val clean = Text.removeSpecial(screenName)
        suspects.iterator
          .filter { case (n, _) => Text.editDistanceLessThan(clean, n, 5) }
          .map { case (n, r) => s"$n:$r" }
          .toVector.sorted.mkString(",")
      }
      df => df.withColumn("related_suspects", f(col("screen_name")))

    case "nearby_monuments" =>
      // No index in the Java path: full scan of the monument array per record.
      val monuments = columns(refs.monuments, "monument_id", "monument_x", "monument_y")
        .map(r => (r.getString(0), r.getDouble(1), r.getDouble(2)))
      val f = udf { (lat: Double, lon: Double) =>
        monuments.iterator
          .filter { case (_, x, y) => Spatial.circleContains(lat, lon, 1.5, x, y) }
          .map(_._1).toVector.sorted.mkString(",")
      }
      df => df.withColumn("nearby_monuments", f(col("latitude"), col("longitude")))

    case other =>
      throw new IllegalArgumentException(
        s"no Java UDF implementation for '$other' (supported: ${supported.toSeq.sorted.mkString(", ")})")
  }
}
