package repro

import org.apache.spark.sql.functions.{count, lit}

import repro.data.TweetData

/** Self-checks of the DuckDB oracle harness the enrichment specs lean on:
  * it must accept a correct result and reject wrong values or names.
  */
class OracleSpec extends SparkSpec {

  private val sqlText = "SELECT country AS country, count(*) AS cnt FROM tweets GROUP BY country"

  test("oracle accepts a correct aggregate") {
    val tweets = TweetData.tweets(spark, 300)
    val agg = tweets.groupBy("country").agg(count(lit(1)) as "cnt")
    Oracle.assertEquivalent(agg, sqlText, "tweets" -> tweets)
  }

  test("oracle rejects a wrong result") {
    val tweets = TweetData.tweets(spark, 300)
    val wrong = tweets.groupBy("country").agg((count(lit(1)) + 1) as "cnt")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, sqlText, "tweets" -> tweets)
    }
  }

  test("oracle rejects column-name mismatches") {
    val tweets = TweetData.tweets(spark, 300)
    val agg = tweets.groupBy("country").agg(count(lit(1)) as "n")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(agg, sqlText, "tweets" -> tweets)
    }
  }
}
