package repro.refstore

import org.apache.spark.sql.DataFrame
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty

import repro.SparkSpec
import repro.data.{SafetyRating, TweetData}

/** Random interleavings of upserts and snapshots agree with a `Map` model
  * under last-writer-wins, and every snapshot keeps reading the version it
  * was taken at, however many upserts follow it.
  */
class ReferenceStorePropertySpec extends SparkSpec {
  import ReferenceStorePropertySpec._

  private val baseSize = 8
  private val baseRatings = TweetData.localSafetyRatings(baseSize)

  // Few fresh keys, so a key first inserted by one upsert is often replaced
  // by a later one.
  private val key: Gen[String] = Gen.oneOf(
    Gen.oneOf(baseRatings.map(_.country_code)), Gen.oneOf((0 until 4).map(i => s"NEW$i")))
  private val rating: Gen[String] = Gen.oneOf("A", "B", "C", "D", "E", "Z")

  private val upsert: Gen[Op] = for {
    n <- Gen.choose(1, 4)
    rows <- Gen.listOfN(n, Gen.zip(key, rating))
  } yield Upsert(rows)
  private val repeatedKey: Gen[Op] = for {
    k <- key
    values <- Gen.listOfN(3, rating)
  } yield Upsert(values.map(k -> _))
  private val ops: Gen[List[Op]] = Gen.choose(1, 12).flatMap(n =>
    Gen.listOfN(n, Gen.frequency(3 -> upsert, 1 -> repeatedKey, 2 -> Gen.const(Snapshot))))

  // Long scripts that mostly re-rate keys the store already holds, with a
  // snapshot after most upserts: each version is patched from the one
  // before it.
  private val existingKeyUpsert: Gen[Op] = for {
    n <- Gen.choose(1, 4)
    rows <- Gen.listOfN(n, Gen.zip(Gen.oneOf(baseRatings.map(_.country_code)), rating))
  } yield Upsert(rows)
  private val patchingOps: Gen[List[Op]] = Gen.choose(10, 40).flatMap(n =>
    Gen.listOfN(n, Gen.frequency(3 -> existingKeyUpsert, 1 -> upsert, 3 -> Gen.const(Snapshot))))

  private def contents(df: DataFrame): Seq[(String, String)] =
    df.collect().map(r => (r.getString(0), r.getString(1))).toSeq

  test("upserts and snapshots match a last-writer-wins Map model") {
    val prop = Prop.forAllNoShrink(ops) { script =>
      val store = ReferenceStore(spark, "SafetyRatings", baseRatings, "country_code")
      var model = baseRatings.map(r => r.country_code -> r.safety_rating).toMap
      var upserts = 0L
      val taken = Seq.newBuilder[(DataFrame, Map[String, String])]
      script.foreach {
        case Upsert(rows) =>
          store.upsertProducts(rows.map { case (k, v) => SafetyRating(k, v) })
          model ++= rows
          upserts += 1
        case Snapshot =>
          taken += (store.snapshot() -> model)
      }
      taken += (store.snapshot() -> model)
      store.version == upserts && taken.result().forall { case (snap, expected) =>
        val rows = contents(snap)
        rows.size == expected.size && rows.toMap == expected
      }
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(60).withInitialSeed(Seed(42L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
  }

  test("many snapshots interleaved with upserts of existing keys match the model") {
    val prop = Prop.forAllNoShrink(patchingOps) { script =>
      val store = ReferenceStore(spark, "SafetyRatings", baseRatings, "country_code")
      var model = baseRatings.map(r => r.country_code -> r.safety_rating).toMap
      var upsertedKeys = Set.empty[String]
      val taken = Seq.newBuilder[(DataFrame, Map[String, String])]
      script.foreach {
        case Upsert(rows) =>
          store.upsertProducts(rows.map { case (k, v) => SafetyRating(k, v) })
          model ++= rows
          upsertedKeys ++= rows.map(_._1)
        case Snapshot =>
          taken += (store.snapshot() -> model)
      }
      taken += (store.snapshot() -> model)
      store.current.number == store.version && store.current.rows.length == model.size &&
        store.deltaSize == upsertedKeys.size && taken.result().forall { case (snap, expected) =>
          val rows = contents(snap)
          rows.size == expected.size && rows.toMap == expected
        }
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(60).withInitialSeed(Seed(42L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
  }
}

object ReferenceStorePropertySpec {
  private sealed trait Op
  private final case class Upsert(rows: Seq[(String, String)]) extends Op
  private case object Snapshot extends Op
}
