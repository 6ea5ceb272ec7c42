package repro.bench

import scala.collection.mutable

import repro.SparkSpec
import repro.core._
import repro.data._
import repro.refstore.ReferenceStore

/** Figure 27 — ingestion + enrichment throughput under concurrent
  * reference-data updates at increasing rates (paper: 0→400 records/s on
  * 100 K tweets, 6 nodes). An updater thread upserts into the UDF's own
  * reference store while the feed runs. Each batch that starts after an
  * upsert binds a new store version, and the prepared job rebuilds the
  * reference-side state over it (a broadcast's input and relation, a
  * reference-side group-by or window): that rebuild is the update cost the
  * pipeline sees.
  *
  * Each (UDF, rate) is timed on a feed that follows one unmeasured feed of
  * its own, in three rounds that rotate the order of the rates, and the
  * table reports the median of the rounds. A fixed rising order would leave
  * the 0/s row the coldest and the 400/s row the warmest.
  */
class Fig27UpdateRateBench extends SparkSpec {

  private val rates = Seq(0.0, 1.0, 10.0, 100.0, 400.0)
  private val rounds = 3
  private val n = 5040
  private val batch = 840

  /** Which store each UDF reads, and a fresh row generator for upserts. */
  private def target(stores: RefStoreSet, udf: String): (ReferenceStore, Int => Product) = udf match {
    case "safety_rating" => (stores.safetyRatings, i => SafetyRating(f"UPD$i%06d", "X"))
    case "religious_population" | "largest_religions" =>
      (stores.religiousPopulations, i => ReligiousPopulation(f"UPD$i%06d", "US", "alpha", 1))
    case "fuzzy_suspects" => (stores.suspects, i => SuspectName(f"UPD$i%06d", f"updname$i%04d", "beta", 1))
    case "nearby_monuments" => (stores.monuments, i => Monument(f"UPD$i%06d", 1.0, 1.0))
    case other => throw new IllegalArgumentException(other)
  }

  /** Throughput of one feed over fresh stores while the updater runs at `rate`. */
  private def feed(udf: String, rate: Double): Double = {
    val stores = RefStoreSet.create(spark)
    val (store, mk) = target(stores, udf)
    @volatile var stop = false
    val updater = new Thread(() => {
      var i = 0
      while (!stop && rate > 0) {
        store.upsertProducts(Seq(mk(i)))
        i += 1
        Thread.sleep(math.max(1, (1000 / rate).toLong))
      }
    })
    updater.setDaemon(true)
    updater.start()
    val r = BenchUtil.run(spark, n, batch, SqlEnrichment(udf), Dynamic, stores)
    stop = true
    updater.join()
    if (rate > 0) assert(store.version > 0, "updater never landed an upsert")
    r.throughputRecSec
  }

  private val rows = mutable.ArrayBuffer.empty[(String, Double, Double)]

  for (udf <- BenchUtil.simpleUdfs) {
    test(s"Fig 27: $udf under update rates ${rates.mkString(", ")}/s") {
      val timed = (0 until rounds).flatMap { r =>
        (rates.drop(r) ++ rates.take(r)).map { rate =>
          feed(udf, rate)
          rate -> feed(udf, rate)
        }
      }
      rates.foreach(rate => rows += ((udf, rate, BenchUtil.median(timed.collect { case (`rate`, t) => t }))))
    }
  }

  test("Fig 27: print table and check the zero-to-nonzero step") {
    BenchUtil.banner("Fig 27 (local): throughput (rec/s) vs reference update rate")
    BenchUtil.row("udf", "updates/s", s"median throughput rec/s of $rounds rounds")
    rows.foreach { case (u, r, t) => BenchUtil.row(u, r, t) }
    // The paper's qualitative claim: updates cost throughput; the first
    // update already changes the access path. Allow noise but require the
    // heavily-updated run not to *beat* the quiescent run materially.
    for (udf <- BenchUtil.simpleUdfs) {
      val t0 = rows.find(r => r._1 == udf && r._2 == 0.0).get._3
      val t400 = rows.find(r => r._1 == udf && r._2 == 400.0).get._3
      assert(t400 < t0 * 1.25, s"$udf: 400/s ($t400) should not beat 0/s ($t0)")
    }
  }
}
