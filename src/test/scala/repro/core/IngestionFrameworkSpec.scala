package repro.core

import repro.{SparkSpec, TestRefs}
import repro.data.{SafetyRating, TweetData}

/** End-to-end behavior of the decoupled ingestion framework: completeness,
  * batching, the dynamic-sees-updates / static-stays-stale semantics that
  * are the paper's central claim, and the computing-model equivalences of
  * §4.3.
  */
class IngestionFrameworkSpec extends SparkSpec {

  private def freshStores() = TestRefs.small(spark)

  test("plain ingestion moves every record to storage") {
    val tweets = TweetData.localTweets(200)
    val r = IngestionFramework.run(spark, tweets, 50, NoEnrichment, Dynamic, freshStores())
    assert(r.records == 200)
    assert(r.batches == 4)
    assert(r.sink.count == 200)
    val ids = r.sink.toDf(spark).select("id").collect().map(_.getLong(0)).toSet
    assert(ids == tweets.map(_.id).toSet)
    val expected = spark.createDataFrame(tweets)
    val stored = r.sink.toDf(spark)
    assert(stored.schema == expected.schema)
    assert(stored.collect().sortBy(_.getLong(0)).toSeq == expected.collect().sortBy(_.getLong(0)).toSeq)
  }

  test("a trailing partial batch is ingested (EOF drains)") {
    val r = IngestionFramework.run(spark, TweetData.localTweets(25), 10, NoEnrichment, Dynamic, freshStores())
    assert(r.batches == 3)
    assert(r.sink.count == 25)
  }

  test("batch count follows ceil(n / batchSize)") {
    val r = IngestionFramework.run(spark, TweetData.localTweets(100), 7, NoEnrichment, Dynamic, freshStores())
    assert(r.batches == 15)
    assert(r.records == 100)
  }

  test("report records one duration per computing job") {
    val r = IngestionFramework.run(spark, TweetData.localTweets(60), 20, NoEnrichment, Dynamic, freshStores())
    assert(r.batchDurationsMs.size == 3)
    assert(r.refreshPeriodMs >= 0)
    assert(r.throughputRecSec > 0)
  }

  test("enriched ingestion equals one-shot enrichment when references are frozen") {
    val tweets = TweetData.localTweets(120)
    val stores = freshStores()
    val r = IngestionFramework.run(spark, tweets, 40, SqlEnrichment("safety_rating"), Dynamic, stores)
    val got = r.sink.toDf(spark).select("id", "safety_rating")
      .orderBy("id").collect().map(_.toString).toSeq
    val exp = Enrichments.safetyRating(spark.createDataFrame(tweets), stores.snapshot)
      .select("id", "safety_rating").orderBy("id").collect().map(_.toString).toSeq
    assert(got == exp)
  }

  private def ratingsById(r: IngestionReport): Map[Long, String] =
    r.sink.toDf(spark).select("id", "safety_rating").collect()
      .map(row => row.getLong(0) -> row.getString(1)).toMap

  private def overwriteAllRatings(stores: RefStoreSet, value: String): Unit =
    stores.safetyRatings.upsertProducts(TweetData.countries.map(SafetyRating(_, value)))

  test("DYNAMIC ingestion sees reference upserts at batch granularity") {
    val tweets = TweetData.localTweets(150)
    val stores = freshStores()
    val r = IngestionFramework.run(spark, tweets, 50, SqlEnrichment("safety_rating"), Dynamic, stores,
      onBatchDone = n => if (n == 1) overwriteAllRatings(stores, "UPDATED"))
    val byId = ratingsById(r)
    // Batch 1 (ids 0..49) ran before the upsert; batches 2–3 after.
    assert((0L until 50L).forall(id => byId(id) != "UPDATED"))
    assert((50L until 150L).forall(id => byId(id) == "UPDATED"))
  }

  test("STATIC ingestion never sees reference upserts (stale state)") {
    val tweets = TweetData.localTweets(150)
    val stores = freshStores()
    val r = IngestionFramework.run(spark, tweets, 50, SqlEnrichment("safety_rating"), Static, stores,
      onBatchDone = n => if (n == 1) overwriteAllRatings(stores, "UPDATED"))
    assert(ratingsById(r).values.forall(_ != "UPDATED"))
  }

  test("DYNAMIC Java enrichment sees upserts at batch granularity") {
    val tweets = TweetData.localTweets(150)
    val stores = freshStores()
    val r = IngestionFramework.run(spark, tweets, 50, JavaEnrichment("safety_rating"), Dynamic, stores,
      onBatchDone = n => if (n == 1) overwriteAllRatings(stores, "JUPDATED"))
    val byId = ratingsById(r)
    assert((0L until 50L).forall(id => byId(id) != "JUPDATED"))
    assert((50L until 150L).forall(id => byId(id) == "JUPDATED"))
  }

  test("STATIC Java enrichment stays stale") {
    val tweets = TweetData.localTweets(100)
    val stores = freshStores()
    val r = IngestionFramework.run(spark, tweets, 50, JavaEnrichment("safety_rating"), Static, stores,
      onBatchDone = n => if (n == 1) overwriteAllRatings(stores, "JUPDATED"))
    assert(ratingsById(r).values.forall(_ != "JUPDATED"))
  }

  test("Java and SQL dynamic pipelines produce identical enriched datasets") {
    val tweets = TweetData.localTweets(100)
    val s1 = freshStores(); val s2 = freshStores()
    val a = IngestionFramework.run(spark, tweets, 25, SqlEnrichment("safety_rating"), Dynamic, s1)
      .sink.toDf(spark).select("id", "safety_rating").orderBy("id").collect().map(_.toString).toSeq
    val b = IngestionFramework.run(spark, tweets, 25, JavaEnrichment("safety_rating"), Dynamic, s2)
      .sink.toDf(spark).select("id", "safety_rating").orderBy("id").collect().map(_.toString).toSeq
    assert(a == b)
  }

  test("Model 1 evaluates one computing job per record") {
    val r = IngestionFramework.run(spark, TweetData.localTweets(12), 1, SqlEnrichment("safety_rating"), Dynamic, freshStores())
    assert(r.batches == 12)
    assert(r.sink.count == 12)
  }

  test("Models 1, 2, 3 agree when reference data is frozen") {
    val tweets = TweetData.localTweets(60)
    def rows(r: IngestionReport) =
      r.sink.toDf(spark).select("id", "safety_rating").orderBy("id").collect().map(_.toString).toSeq
    val m1 = rows(IngestionFramework.run(spark, tweets, 1, SqlEnrichment("safety_rating"), Dynamic, freshStores()))
    val m2 = rows(IngestionFramework.run(spark, tweets, 20, SqlEnrichment("safety_rating"), Dynamic, freshStores()))
    val m3 = rows(IngestionFramework.run(spark, tweets, 20, SqlEnrichment("safety_rating"), Static, freshStores()))
    assert(m1 == m2)
    assert(m2 == m3)
  }

  test("Models 2 and 3 diverge exactly when reference data changes mid-feed") {
    val tweets = TweetData.localTweets(60)
    def run(mode: RefreshMode) = {
      val stores = freshStores()
      IngestionFramework.run(spark, tweets, 20, SqlEnrichment("safety_rating"), mode, stores,
        onBatchDone = n => if (n == 1) overwriteAllRatings(stores, "DIVERGED"))
    }
    val m2 = ratingsById(run(Dynamic))
    val m3 = ratingsById(run(Static))
    assert((0L until 20L).forall(id => m2(id) == m3(id)), "pre-update batch must agree")
    assert((20L until 60L).forall(id => m2(id) == "DIVERGED" && m3(id) != "DIVERGED"))
  }

  test("stateful UDF with nested subquery (Figure 18) refreshes its top-10 state per batch") {
    import repro.data.SensitiveWord
    val tweets = TweetData.localTweets(100) // countries spread over C001..; batch 50
    val stores = freshStores()
    // Make country of tweet id 60 jump into the top-10 after batch 1 by
    // giving it many keywords.
    val boosted = tweets(60).country
    val r = IngestionFramework.run(spark, tweets, 50, SqlEnrichment("high_risk_check"), Dynamic, stores,
      onBatchDone = n => if (n == 1)
        stores.sensitiveWords.upsertProducts((0 until 50).map(i => SensitiveWord(f"boost$i%03d", boosted, "bomb"))))
    val flags = r.sink.toDf(spark).select("id", "country", "high_risk_flag").collect()
      .map(row => (row.getLong(0), row.getString(1), row.getString(2)))
    // Every tweet from the boosted country in batch 2 must now be Red.
    val batch2Boosted = flags.filter { case (id, c, _) => id >= 50 && c == boosted }
    assert(batch2Boosted.nonEmpty)
    assert(batch2Boosted.forall(_._3 == "Red"))
  }

  test("concurrent updater thread during ingestion is safe and lands somewhere mid-feed") {
    val tweets = TweetData.localTweets(200)
    val stores = freshStores()
    @volatile var done = false
    val updater = new Thread(() => {
      var i = 0
      while (!done) {
        stores.safetyRatings.upsertProducts(Seq(SafetyRating(f"UPD$i%04d", "X")))
        i += 1
        Thread.sleep(2)
      }
    })
    updater.start()
    val r = IngestionFramework.run(spark, tweets, 40, SqlEnrichment("safety_rating"), Dynamic, stores)
    done = true
    updater.join()
    assert(r.records == 200)
    assert(stores.safetyRatings.version > 0)
  }

  test("two sequential feeds do not interfere (partition holders unregistered)") {
    val stores = freshStores()
    val r1 = IngestionFramework.run(spark, TweetData.localTweets(30), 10, NoEnrichment, Dynamic, stores)
    val r2 = IngestionFramework.run(spark, TweetData.localTweets(30), 10, NoEnrichment, Dynamic, stores)
    assert(r1.sink.count == 30 && r2.sink.count == 30)
  }

  test("rate-limited feed still ingests everything") {
    val r = IngestionFramework.run(spark, TweetData.localTweets(50), 10, NoEnrichment, Dynamic,
      freshStores(), ratePerSec = Some(2000.0))
    assert(r.sink.count == 50)
  }
}
