package repro.refstore

import scala.collection.mutable
import scala.reflect.runtime.universe.TypeTag
import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.types.StructType

import repro.feed.LocalFrames

/** A versioned, upsertable reference dataset — the analog of an AsterixDB
  * dataset backed by an LSM tree.
  *
  * The store holds encoded rows: the immutable `base` array plays the role
  * of the on-disk LSM components, and the set of keys upserted so far plays
  * the role of the LSM memory component that an `UPSERT` activates. Rows
  * are encoded once, when the store is built or when an upsert arrives, so
  * a row that does not fit the schema is rejected by the upsert that
  * carries it.
  *
  * Version 0 is `base` itself. Each later version is built once, when first
  * read, by patching a copy of the previous version: a row whose key is
  * already present replaces it in place, and a row with a new key is
  * appended (last writer wins on the primary key). The key → position index
  * this needs is built on the first upsert, so a store that is never
  * upserted never hashes its keys. Only the rows upserted since the
  * previous version are applied.
  *
  * Each version owns one [[repro.feed.LocalFrames]] frame over its rows,
  * built when first asked for; every reader of that version, the prepared
  * computing job included, shares it.
  *
  * Thread-safe: the ingestion pipeline reads versions while an updater
  * thread upserts (paper §7.3). An upsert applies all of its rows and bumps
  * the version together, or nothing at all. Each version holds its own
  * array of rows, so a computing job sees exactly the updates applied
  * before it started — the record-level consistency model the paper
  * assumes.
  */
final class ReferenceStore private (
    val name: String,
    spark: SparkSession,
    val schema: StructType,
    base: Array[InternalRow],
    val primaryKey: String) {

  private val pkIdx = schema.fieldIndex(primaryKey)
  private val pkType = schema(pkIdx).dataType
  private val toRow = ExpressionEncoder(schema).createSerializer()

  /** One version of the store: its number (the upserts applied before it)
    * and its rows, encoded with the store's schema. The rows are shared by
    * every reader of the version and must not be changed.
    */
  final class Version private[ReferenceStore] (val number: Long, val rows: Array[InternalRow]) {
    /** The version's rows as a frame, built once, when first asked for. */
    lazy val frame: DataFrame = LocalFrames.ofInternalRows(spark, schema, rows)
  }

  /** Version 0: the rows the store was built with — what a static (Model 3)
    * pipeline holds on to for its whole lifetime.
    */
  val initial: Version = new Version(0L, base)

  private var ver: Long = 0L
  /** The last version built, and the rows upserted since (in order), each
    * with the position it takes in the next version.
    */
  private var built = initial
  private val pending = mutable.ArrayBuffer.empty[(Int, InternalRow)]
  /** Key → position in the next version; built on the first upsert. */
  private var positions: mutable.HashMap[Any, Int] = _
  private var size = base.length
  private val upserted = mutable.HashSet.empty[Any]

  private def key(r: InternalRow): Any = r.get(pkIdx, pkType)

  /** Number of upsert calls applied so far (monotonic). */
  def version: Long = synchronized(ver)

  /** Number of distinct keys currently in the in-memory delta component. */
  def deltaSize: Int = synchronized(upserted.size)

  /** UPSERT: insert rows, replacing any existing row with the same key
    * (paper footnote 1). Rows must match the store's schema; if any row
    * does not, the call throws `IllegalArgumentException` and the store is
    * left unchanged.
    */
  def upsert(rows: Seq[Row]): Unit = synchronized {
    rows.foreach { r =>
      require(r.size == schema.size,
        s"$name: upsert row arity ${r.size} != schema arity ${schema.size}")
    }
    val encoded = rows.map { r =>
      try toRow(r).copy()
      catch {
        case NonFatal(e) =>
          throw new IllegalArgumentException(s"$name: upsert row $r does not match ${schema.simpleString}", e)
      }
    }
    if (positions == null) {
      positions = new mutable.HashMap[Any, Int](base.length * 2, mutable.HashMap.defaultLoadFactor)
      var i = 0
      while (i < base.length) { positions(key(base(i))) = i; i += 1 }
    }
    encoded.foreach { r =>
      val k = key(r)
      val pos = positions.getOrElseUpdate(k, { size += 1; size - 1 })
      pending += (pos -> r)
      upserted += k
    }
    ver += 1
  }

  /** UPSERT of case-class instances whose field order matches the schema. */
  def upsertProducts(ps: Seq[Product]): Unit =
    upsert(ps.map(p => Row.fromSeq(p.productIterator.toSeq)))

  /** The current version: its number and its rows, read together. */
  def current: Version = synchronized {
    if (built.number != ver) {
      val rows = java.util.Arrays.copyOf(built.rows, size)
      pending.foreach { case (pos, r) => rows(pos) = r }
      pending.clear()
      built = new Version(ver, rows)
    }
    built
  }

  /** The current version's frame. */
  def snapshot(): DataFrame = current.frame
}

object ReferenceStore {

  /** A store over `rows`, encoded once with `T`'s schema. */
  def apply[T <: Product : TypeTag](spark: SparkSession, name: String, rows: Seq[T], pk: String): ReferenceStore = {
    val encoder = ExpressionEncoder[T]()
    val toRow = encoder.createSerializer()
    new ReferenceStore(name, spark, encoder.schema, rows.iterator.map(toRow(_).copy()).toArray, pk)
  }
}
