package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.ScalaUDF
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.functions.max

import repro.{SparkSpec, TestRefs}
import repro.data.{ReligiousPopulation, SafetyRating, SensitiveWord, Tweet, TweetData}

/** The prepared computing job: every invocation returns what a fresh
  * evaluation of the same enrichment over the same batch and reference
  * versions returns, operators over unchanged references run once, and the
  * plan is prepared without adaptive execution.
  */
class PreparedJobSpec extends SparkSpec {

  /** Batch sizes of one job's invocations; 1 is Model 1 (per record). */
  private val batchSizes = Seq(30, 1, 45, 20)

  /** Replace about a third of every store's rows and add new keys: rows of
    * a larger, differently seeded store set, whose keys overlap ours.
    */
  private def upsertEveryStore(stores: RefStoreSet, round: Int): Unit = {
    val donor = TestRefs.small(spark, seed = 100 + round, scale = 1.25)
    stores.all.zip(donor.all).foreach { case (s, d) =>
      s.upsert(d.staticSnapshot.collect().toSeq.zipWithIndex.collect { case (r, i) if i % 3 == round % 3 => r })
    }
  }

  /** Make the first tweet of `next` that carries no sensitive keyword match
    * a new SensitiveWords row (its country and the first word of its text),
    * so that a job which sees the upsert must flag that tweet Red.
    */
  private def flagInNextBatch(stores: RefStoreSet, next: Seq[Tweet], round: Int): Unit =
    next.find(t => !TweetData.sensitivePool.exists(t.text.contains)).foreach { t =>
      stores.sensitiveWords.upsertProducts(Seq(SensitiveWord(s"flag$round", t.country, t.text.split(" ").head)))
    }

  private def sorted(rows: Seq[Row]): Seq[String] = rows.map(_.toString).sorted

  private def batchAt(k: Int): Seq[Tweet] = TweetData.localTweets(batchSizes(k), seed = 50 + k)

  private val specs: Seq[EnrichmentSpec] =
    Enrichments.byName.keys.toSeq.sorted.map(SqlEnrichment(_)) ++
      JavaUdfs.supported.toSeq.sorted.map(JavaEnrichment(_))

  for (spec <- specs; mode <- Seq(Dynamic, Static))
    test(s"$spec, $mode: every invocation equals a fresh evaluation, with upserts between batches") {
      val stores = TestRefs.small(spark)
      val job = PredeployedJob.predeployed(spark, spec, mode, stores)
      val out = decoder(job.schema)
      batchSizes.zipWithIndex.foreach { case (n, k) =>
        val batch = batchAt(k)
        val refs = if (mode == Dynamic) stores.snapshot else stores.staticRefs
        val df = spark.createDataFrame(batch)
        val fresh: DataFrame = spec match {
          case SqlEnrichment(name) => Enrichments.byName(name)(df, refs)
          case JavaEnrichment(name) => JavaUdfs.compile(name, refs)(df)
          case NoEnrichment => df
        }
        val got = out(job(batch))
        withClue(s"batch ${k + 1} of $n tweets: ") {
          assert(job.schema == fresh.schema)
          assert(sorted(got) == sorted(fresh.collect().toSeq))
        }
        upsertEveryStore(stores, k)
        if (k + 1 < batchSizes.size) flagInNextBatch(stores, batchAt(k + 1), k)
      }
    }

  test("religious_population runs its group-by once per ReligiousPopulations version") {
    val stores = TestRefs.small(spark)
    val job = PredeployedJob.predeployed(spark, SqlEnrichment("religious_population"), Dynamic, stores)
    val batch = TweetData.localTweets(40)
    job(batch)
    assert(jobsStartedBy(job(batch)) == 1)
    assert(jobsStartedBy(job(batch)) == 1)
    stores.religiousPopulations.upsertProducts(Seq(ReligiousPopulation("rp000001", "US", "alpha", 7L)))
    assert(jobsStartedBy(job(batch)) == 2)
    assert(jobsStartedBy(job(batch)) == 1)
    stores.safetyRatings.upsertProducts(Seq(SafetyRating("US", "Z")))
    assert(jobsStartedBy(job(batch)) == 1)
  }

  test("a static job builds its reference state once, whatever the upserts") {
    val stores = TestRefs.small(spark)
    val job = PredeployedJob.predeployed(spark, SqlEnrichment("religious_population"), Static, stores)
    val batch = TweetData.localTweets(40)
    job(batch)
    stores.religiousPopulations.upsertProducts(Seq(ReligiousPopulation("rp000001", "US", "alpha", 7L)))
    assert(jobsStartedBy(job(batch)) == 1)
  }

  test("a no-enrichment job is the batch scan alone and starts no Spark job") {
    val job = PredeployedJob.predeployed(spark, NoEnrichment, Dynamic, TestRefs.small(spark))
    val batch = TweetData.localTweets(50)
    val expected = spark.createDataFrame(batch).collect().toSeq
    assert(job.plan.children.isEmpty, job.plan.treeString)
    var got = Array.empty[InternalRow]
    assert(jobsStartedBy { got = job(batch) } == 0)
    assert(decoder(job.schema)(got) == expected)
  }

  test("a dynamic Java job recompiles only when a store version changes") {
    val stores = TestRefs.small(spark)
    val job = PredeployedJob.predeployed(spark, JavaEnrichment("safety_rating"), Dynamic, stores)
    def udfs = job.plan.flatMap(_.expressions.flatMap(_.collect { case u: ScalaUDF => u.function }))
    val batch = TweetData.localTweets(40)
    job(batch)
    val compiled = udfs
    assert(compiled.size == 1)
    job(batch)
    assert(udfs.head eq compiled.head)
    stores.safetyRatings.upsertProducts(TweetData.countries.map(SafetyRating(_, "NEWSTATE")))
    assert(decoder(job.schema)(job(batch)).map(_.getAs[String]("safety_rating")).toSet == Set("NEWSTATE"))
    assert(!(udfs.head eq compiled.head))
  }

  private def leafParallelism: Int =
    spark.conf.getOption("spark.sql.leafNodeDefaultParallelism").map(_.toInt)
      .getOrElse(spark.sparkContext.defaultParallelism)

  test("prepared plans hold no adaptive plan and no shuffle wider than a local scan") {
    val stores = TestRefs.small(spark)
    val widths = Enrichments.byName.keys.toSeq.sorted.flatMap { name =>
      val plan = PredeployedJob.predeployed(spark, SqlEnrichment(name), Dynamic, stores).plan
      assert(plan.collect { case a: AdaptiveSparkPlanExec => a }.isEmpty, s"$name\n${plan.treeString}")
      plan.collect { case s: ShuffleExchangeExec => s.outputPartitioning.numPartitions }
    }
    assert(widths.nonEmpty)
    assert(widths.forall(_ <= leafParallelism), widths)
    assert(spark.conf.get("spark.sql.shuffle.partitions").toInt > leafParallelism,
      "the session's own shuffle width must differ for this check to mean anything")
  }

  test("the build fails when the plan does not scan the batch") {
    val e = intercept[IllegalStateException] {
      PreparedJob(spark, TestRefs.small(spark), Dynamic, (_, refs) => refs.safetyRatings, compilesState = false)
    }
    assert(e.getMessage.contains("no scan"), e.getMessage)
  }

  test("the build fails when a slot is scanned inside a subquery expression") {
    val e = intercept[IllegalStateException] {
      PreparedJob(spark, TestRefs.small(spark), Dynamic,
        (batch, refs) => batch.withColumn("top", refs.safetyRatings.agg(max("safety_rating")).scalar()),
        compilesState = false)
    }
    assert(e.getMessage.contains("subquery"), e.getMessage)
  }
}
