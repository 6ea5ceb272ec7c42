package repro.refstore

import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, Row, SparkSession}

import repro.feed.LocalFrames

/** A versioned, upsertable reference dataset — the analog of an AsterixDB
  * dataset backed by an LSM tree.
  *
  * The immutable `base` DataFrame plays the role of the on-disk LSM
  * components; the delta map plays the role of the LSM memory component
  * that an `UPSERT` activates. When no update has ever arrived,
  * `snapshot()` returns the base directly (the paper's observation that the
  * *first* update changes the access path is mirrored by this fast path
  * disappearing).
  *
  * Once a store has a delta, `snapshot()` merges base and delta with
  * last-writer-wins semantics on the primary key on the driver: base rows
  * whose key the delta replaces are dropped and the delta rows appended.
  * The merged rows become one [[repro.feed.LocalFrames]] frame, built once
  * per version and shared by every reader of that version; its plan is one
  * table scan that holds no rows, so planning costs the same however large
  * the delta grows. The base rows are collected on the first
  * snapshot after the first upsert and kept for the store's lifetime; a
  * store that is never upserted never collects them.
  *
  * Thread-safe: the ingestion pipeline reads snapshots while an updater
  * thread upserts (paper §7.3). An upsert applies all of its rows and bumps
  * the version together, or nothing at all. Each snapshot holds its own
  * copy of the merged rows, so a computing job sees exactly the updates
  * applied before it started — the record-level consistency model the
  * paper assumes.
  */
final class ReferenceStore(
    val name: String,
    spark: SparkSession,
    base: DataFrame,
    val primaryKey: String) {

  private val pkIdx = base.schema.fieldIndex(primaryKey)
  private val delta = mutable.LinkedHashMap.empty[String, Row]
  private lazy val baseRows: Array[Row] = base.collect()
  private lazy val toFrame = LocalFrames.ofRows(spark, base.schema)
  private var ver: Long = 0L
  private var cachedVer: Long = -1L
  private var cachedSnap: DataFrame = base

  private def key(r: Row): String = String.valueOf(r.get(pkIdx))

  /** Number of upsert calls applied so far (monotonic). */
  def version: Long = synchronized(ver)

  /** Number of distinct keys currently in the in-memory delta component. */
  def deltaSize: Int = synchronized(delta.size)

  /** UPSERT: insert rows, replacing any existing row with the same key
    * (paper footnote 1). Rows must match the base schema; if any row does
    * not, the call throws and the store is left unchanged.
    */
  def upsert(rows: Seq[Row]): Unit = synchronized {
    rows.foreach { r =>
      require(r.size == base.schema.size,
        s"$name: upsert row arity ${r.size} != schema arity ${base.schema.size}")
    }
    rows.foreach(r => delta(key(r)) = r)
    ver += 1
  }

  /** UPSERT of case-class instances whose field order matches the schema. */
  def upsertProducts(ps: Seq[Product]): Unit =
    upsert(ps.map(p => Row.fromSeq(p.productIterator.toSeq)))

  /** Current merged view, cached per version so every batch and UDF that
    * reads one version shares one local frame.
    */
  def snapshot(): DataFrame = synchronized {
    if (ver == cachedVer) return cachedSnap
    val snap =
      if (delta.isEmpty) base
      else {
        val merged = baseRows.iterator.filterNot(r => delta.contains(key(r))) ++ delta.valuesIterator
        toFrame(merged)
      }
    cachedVer = ver
    cachedSnap = snap
    snap
  }

  /** A snapshot frozen at construction time — what a static (Model 3)
    * pipeline holds on to for its whole lifetime.
    */
  val staticSnapshot: DataFrame = base
}

object ReferenceStore {
  def apply(spark: SparkSession, name: String, base: DataFrame, pk: String): ReferenceStore =
    new ReferenceStore(name, spark, base, pk)
}
