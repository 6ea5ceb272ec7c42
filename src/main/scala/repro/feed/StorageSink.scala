package repro.feed

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.types.StructType

/** The storage-job back end: receives enriched frames and stores them in
  * hash partitions keyed by the record's primary key — the analog of the
  * paper's Hash Partitioner + Storage Partitions (§6.2).
  *
  * Locally, a "storage partition" is an in-memory buffer of the encoded rows
  * the computing job produced, stored as they arrive; the final dataset is
  * served back as a DataFrame over those rows for verification queries.
  * Every record is keyed by its `id` and spread over four partitions.
  */
final class StorageSink {
  private val NumPartitions = 4
  private val PrimaryKey = "id"

  private val partitions = Array.fill(NumPartitions)(ArrayBuffer.empty[InternalRow])
  @volatile private var schema: StructType = _

  /** Append one enriched frame of rows encoded with `frameSchema`, routing
    * each row to the hash partition of its primary key. The sink keeps the
    * rows themselves, so the caller must not change them.
    */
  def append(frame: Array[InternalRow], frameSchema: StructType): Unit = synchronized {
    if (schema == null) schema = frameSchema
    else require(schema == frameSchema,
      s"storage schema changed mid-feed: $schema vs $frameSchema")
    val pkIdx = frameSchema.fieldIndex(PrimaryKey)
    val pkType = frameSchema(pkIdx).dataType
    frame.foreach { r =>
      partitions(math.floorMod(java.util.Objects.hashCode(r.get(pkIdx, pkType)), NumPartitions)) += r
    }
  }

  /** Append external rows: encode them with `frameSchema` and store them. */
  def append(frame: Seq[Row], frameSchema: StructType): Unit = {
    val toRow = ExpressionEncoder(frameSchema).createSerializer()
    append(frame.iterator.map(toRow(_).copy()).toArray, frameSchema)
  }

  def count: Long = partitionSizes.sum

  /** Rows per storage partition (for balance assertions). */
  def partitionSizes: Seq[Int] = synchronized(partitions.map(_.size).toSeq)

  /** Materialize the stored dataset. Empty sink ⇒ empty DataFrame with an
    * empty schema is meaningless, so callers must check `count` first.
    */
  def toDf(spark: SparkSession): DataFrame = synchronized {
    require(schema != null, "storage sink is empty — nothing was ingested")
    LocalFrames.ofInternalRows(spark, schema, partitions.iterator.flatten.toArray)
  }
}
