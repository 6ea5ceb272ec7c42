package perfbench

import scala.collection.mutable

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.types.{StringType, StructField, StructType}

import repro.core._
import repro.data.{SafetyRating, Tweet}
import repro.feed.StorageSink

/** Output checks. A fed record fails if it was not stored, was stored more
  * than once, or was stored with the wrong content; a stored row whose id
  * was never fed fails too.
  */
object Checks {

  private val tweetColumns = Seq(
    "id", "text", "country", "latitude", "longitude", "created_at", "user_name", "screen_name")

  /** The rows a sink stores, read through its public `toDf`. */
  def storedRows(spark: SparkSession, sink: StorageSink): Array[Row] =
    if (sink.count == 0) Array.empty else sink.toDf(spark).collect()

  /** Number of failed records. `ok(row, i)` judges a stored row for the
    * fed record `fed(i)`.
    */
  def failures(stored: Array[Row], fed: IndexedSeq[Tweet], ok: (Row, Int) => Boolean): Long = {
    val index = new mutable.LongMap[Int](fed.size * 2)
    fed.indices.foreach(i => index(fed(i).id) = i)
    val seen = new Array[Int](fed.size)
    val good = Array.fill(fed.size)(true)
    var strangers = 0L
    if (stored.nonEmpty) {
      val idIdx = stored.head.fieldIndex("id")
      stored.foreach { r =>
        index.get(r.getLong(idIdx)) match {
          case Some(i) =>
            seen(i) += 1
            if (!ok(r, i)) good(i) = false
          case None => strangers += 1
        }
      }
    }
    strangers + fed.indices.count(i => seen(i) != 1 || !good(i))
  }

  /** Judges whether a stored row carries the fed tweet's fields unchanged;
    * built once per schema.
    */
  final class TweetFields(schema: StructType) {
    private val idx = tweetColumns.map(schema.fieldIndex).toArray

    def kept(r: Row, t: Tweet): Boolean =
      r.get(idx(0)) == t.id && r.get(idx(1)) == t.text && r.get(idx(2)) == t.country &&
        r.get(idx(3)) == t.latitude && r.get(idx(4)) == t.longitude &&
        r.get(idx(5)) == t.created_at && r.get(idx(6)) == t.user_name && r.get(idx(7)) == t.screen_name
  }

  private def schemaOf(stored: Array[Row]): StructType =
    stored.headOption.map(_.schema).getOrElse(StructType(tweetColumns.map(StructField(_, StringType))))

  /** ingest-plain: every fed tweet stored once, unchanged, with no extra
    * columns.
    */
  def plain(stored: Array[Row], fed: IndexedSeq[Tweet]): Long = {
    val schema = schemaOf(stored)
    val fields = new TweetFields(schema)
    val exact = schema.fieldNames.toSeq == tweetColumns
    failures(stored, fed, (r, i) => exact && fields.kept(r, fed(i)))
  }

  /** Frozen references: Model 2 ≡ Model 3, so the stored rows equal one
    * evaluation of the same enrichment over the whole feed.
    */
  def oneShot(spark: SparkSession, spec: EnrichmentSpec, fed: IndexedSeq[Tweet], refs: Refs): Map[Long, Row] = {
    val df = spark.createDataFrame(fed)
    val out = spec match {
      case NoEnrichment => df
      case SqlEnrichment(name) => Enrichments.byName(name)(df, refs)
      case JavaEnrichment(name) => JavaUdfs.compile(name, refs).apply(df)
    }
    out.collect().map(r => r.getAs[Long]("id") -> r).toMap
  }

  def frozen(stored: Array[Row], fed: IndexedSeq[Tweet], expected: Map[Long, Row]): Long =
    failures(stored, fed, (r, i) => expected.get(fed(i).id).contains(r))

  /** enrich-sql-upserts: the `safety_rating` of a row in batch k is the
    * rating the store held at the start of batch k, i.e. the initial ratings
    * plus the upserts made after batches 1..k-1.
    */
  def upserts(stored: Array[Row], fed: IndexedSeq[Tweet], batchSize: Int,
              initial: Map[String, String], schedule: IndexedSeq[Seq[SafetyRating]]): Long = {
    val model = mutable.Map.from(initial)
    val expected = new Array[Option[String]](fed.size)
    fed.indices.grouped(batchSize).zipWithIndex.foreach { case (batch, k) =>
      batch.foreach(i => expected(i) = model.get(fed(i).country))
      schedule.lift(k).foreach(_.foreach(s => model(s.country_code) = s.safety_rating))
    }
    val schema = schemaOf(stored)
    val fields = new TweetFields(schema)
    val rating = if (stored.isEmpty) -1 else schema.fieldIndex("safety_rating")
    failures(stored, fed, (r, i) => fields.kept(r, fed(i)) && Option(r.getString(rating)) == expected(i))
  }

  /** Rows stored by two feeds of the same inputs that differ, counted by id. */
  def differences(a: Array[Row], b: Array[Row]): Long = {
    def byId(rows: Array[Row]) =
      rows.groupBy(_.getAs[Long]("id")).view.mapValues(_.toSeq.sortBy(_.toString)).toMap
    val (x, y) = (byId(a), byId(b))
    (x.keySet ++ y.keySet).count(id => x.get(id) != y.get(id)).toLong
  }
}
