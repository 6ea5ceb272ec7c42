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
  * The store holds one encoded copy of its rows: the immutable `base` array
  * plays the role of the on-disk LSM components, and the delta map, keyed
  * by primary key, plays the role of the LSM memory component that an
  * `UPSERT` activates. Rows are encoded once, when the store is built or
  * when an upsert arrives, so a row that does not fit the schema is
  * rejected by the upsert that carries it.
  *
  * Every version is one [[repro.feed.LocalFrames]] frame, built once and
  * shared by every reader of that version; its plan is one table scan that
  * holds no rows, so planning costs the same however large the store or
  * its delta grows. Version 0 is a frame over `base` itself; each later
  * version is the base rows whose key the delta has not replaced, followed
  * by the delta rows (last writer wins on the primary key).
  *
  * Thread-safe: the ingestion pipeline reads snapshots while an updater
  * thread upserts (paper §7.3). An upsert applies all of its rows and bumps
  * the version together, or nothing at all. Each snapshot holds its own
  * array of rows, so a computing job sees exactly the updates applied
  * before it started — the record-level consistency model the paper
  * assumes.
  */
final class ReferenceStore private (
    val name: String,
    spark: SparkSession,
    schema: StructType,
    base: Array[InternalRow],
    val primaryKey: String) {

  private val pkIdx = schema.fieldIndex(primaryKey)
  private val pkType = schema(pkIdx).dataType
  private val toRow = ExpressionEncoder(schema).createSerializer()
  private val delta = mutable.LinkedHashMap.empty[String, InternalRow]
  private var ver: Long = 0L

  /** A snapshot frozen at construction time — what a static (Model 3)
    * pipeline holds on to for its whole lifetime. It is also version 0.
    */
  val staticSnapshot: DataFrame = LocalFrames.ofInternalRows(spark, schema, base)

  private var cachedVer: Long = 0L
  private var cachedSnap: DataFrame = staticSnapshot

  private def key(r: InternalRow): String = String.valueOf(r.get(pkIdx, pkType))

  /** Number of upsert calls applied so far (monotonic). */
  def version: Long = synchronized(ver)

  /** Number of distinct keys currently in the in-memory delta component. */
  def deltaSize: Int = synchronized(delta.size)

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
    encoded.foreach(r => delta(key(r)) = r)
    ver += 1
  }

  /** UPSERT of case-class instances whose field order matches the schema. */
  def upsertProducts(ps: Seq[Product]): Unit =
    upsert(ps.map(p => Row.fromSeq(p.productIterator.toSeq)))

  /** Current merged view, cached per version so every batch and UDF that
    * reads one version shares one local frame.
    */
  def snapshot(): DataFrame = synchronized {
    if (ver != cachedVer) {
      val merged = base.iterator.filterNot(r => delta.contains(key(r))) ++ delta.valuesIterator
      cachedSnap = LocalFrames.ofInternalRows(spark, schema, merged.toArray)
      cachedVer = ver
    }
    cachedSnap
  }
}

object ReferenceStore {

  /** A store over `rows`, encoded once with `T`'s schema. */
  def apply[T <: Product : TypeTag](spark: SparkSession, name: String, rows: Seq[T], pk: String): ReferenceStore = {
    val encoder = ExpressionEncoder[T]()
    val toRow = encoder.createSerializer()
    new ReferenceStore(name, spark, encoder.schema, rows.iterator.map(toRow(_).copy()).toArray, pk)
  }
}
