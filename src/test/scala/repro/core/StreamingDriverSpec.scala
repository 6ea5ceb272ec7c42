package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

import repro.{SparkSpec, TestRefs}
import repro.data.{SafetyRating, TweetData}

/** The Structured Streaming (`foreachBatch`) face of the framework must
  * match the explicit three-job pipeline.
  */
class StreamingDriverSpec extends SparkSpec {

  test("streaming ingestion stores every record") {
    val sink = StreamingDriver.run(spark, TweetData.localTweets(80), 20,
      NoEnrichment, Dynamic, TestRefs.small(spark))
    assert(sink.count == 80)
  }

  // Both drivers invoke the same computing job; after batch 1 every
  // country's rating changes, which Dynamic jobs must see and Static ones not.
  for {
    spec <- Seq(NoEnrichment, SqlEnrichment("safety_rating"), JavaEnrichment("safety_rating"))
    mode <- Seq(Dynamic, Static)
  } test(s"streaming equals framework: $spec, $mode") {
    val tweets = TweetData.localTweets(90)
    def upsertAfterFirst(stores: RefStoreSet): Int => Unit = n =>
      if (n == 1) stores.safetyRatings.upsertProducts(TweetData.countries.map(SafetyRating(_, "TABLE")))
    def rows(df: DataFrame) = df.orderBy("id").collect().map(_.toString).toSeq
    val s1 = TestRefs.small(spark)
    val streamed = StreamingDriver.run(spark, tweets, 30, spec, mode, s1, upsertAfterFirst(s1)).toDf(spark)
    val s2 = TestRefs.small(spark)
    val framework = IngestionFramework.run(spark, tweets, 30, spec, mode, s2,
      onBatchDone = upsertAfterFirst(s2)).sink.toDf(spark)
    assert(rows(streamed) == rows(framework))
    assert(streamed.count() == 90)
    if (spec != NoEnrichment) {
      val updated = streamed.where(col("safety_rating") === "TABLE").count()
      assert(updated == (if (mode == Dynamic) 60 else 0))
    }
  }

  test("foreachBatch DYNAMIC sees upserts between micro-batches") {
    val tweets = TweetData.localTweets(90)
    val stores = TestRefs.small(spark)
    val sink = StreamingDriver.run(spark, tweets, 30, SqlEnrichment("safety_rating"), Dynamic, stores,
      onBatchDone = n => if (n == 1)
        stores.safetyRatings.upsertProducts(TweetData.countries.map(SafetyRating(_, "STREAMED"))))
    val byId = sink.toDf(spark).select("id", "safety_rating").collect()
      .map(r => r.getLong(0) -> r.getString(1)).toMap
    assert((0L until 30L).forall(id => byId(id) != "STREAMED"))
    assert((30L until 90L).forall(id => byId(id) == "STREAMED"))
  }

  test("foreachBatch STATIC stays stale") {
    val tweets = TweetData.localTweets(60)
    val stores = TestRefs.small(spark)
    val sink = StreamingDriver.run(spark, tweets, 30, SqlEnrichment("safety_rating"), Static, stores,
      onBatchDone = n => if (n == 1)
        stores.safetyRatings.upsertProducts(TweetData.countries.map(SafetyRating(_, "STREAMED"))))
    assert(sink.toDf(spark).select("safety_rating").collect().forall(_.getString(0) != "STREAMED"))
  }

  test("streaming Java enrichment works and respects Dynamic mode") {
    val tweets = TweetData.localTweets(60)
    val stores = TestRefs.small(spark)
    val sink = StreamingDriver.run(spark, tweets, 20, JavaEnrichment("safety_rating"), Dynamic, stores,
      onBatchDone = n => if (n == 1)
        stores.safetyRatings.upsertProducts(TweetData.countries.map(SafetyRating(_, "JSTREAM"))))
    val byId = sink.toDf(spark).select("id", "safety_rating").collect()
      .map(r => r.getLong(0) -> r.getString(1)).toMap
    assert((20L until 60L).forall(id => byId(id) == "JSTREAM"))
  }

  test("a computing-job failure ends the streaming run: the cause is rethrown and no query stays active") {
    val stores = TestRefs.small(spark)
    val worded = stores.sensitiveWords.snapshot().collect().head.getAs[String]("country")
    // As in IngestionFrameworkSpec: the Java UDF calls text.contains for a
    // tweet of a country that has sensitive words, so a null text fails
    // its micro-batch.
    val fed = TweetData.localTweets(400)
    val tweets = fed.updated(55, fed(55).copy(text = null, country = worded))
    val t0 = System.nanoTime()
    val e = intercept[Throwable] {
      StreamingDriver.run(spark, tweets, 10, JavaEnrichment("tweet_safety_check"), Dynamic, stores)
    }
    val ms = (System.nanoTime() - t0) / 1000000L
    assert(Iterator.iterate(e)(_.getCause).takeWhile(_ != null).exists(_.isInstanceOf[NullPointerException]), e)
    assert(ms < 30000, s"the failed run took $ms ms to end")
    assert(spark.streams.active.isEmpty, spark.streams.active.map(_.name).toSeq)
  }
}
