package repro.feed

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.StructType

/** The storage-job back end: receives enriched frames and stores them in
  * hash partitions keyed by the record's primary key — the analog of the
  * paper's Hash Partitioner + Storage Partitions (§6.2).
  *
  * Locally, a "storage partition" is an in-memory row buffer; the final
  * dataset is materialized back to a DataFrame for verification queries.
  * Every record is keyed by its `id` and spread over four partitions.
  */
final class StorageSink {
  private val NumPartitions = 4
  private val PrimaryKey = "id"

  private val partitions = Array.fill(NumPartitions)(ArrayBuffer.empty[Row])
  @volatile private var schema: StructType = _
  @volatile private var rows: Long = 0L

  /** Append one enriched frame, routing each row to its hash partition. */
  def append(frame: Seq[Row], frameSchema: StructType): Unit = synchronized {
    if (schema == null) schema = frameSchema
    else require(schema == frameSchema,
      s"storage schema changed mid-feed: $schema vs $frameSchema")
    val pkIdx = frameSchema.fieldIndex(PrimaryKey)
    frame.foreach { r =>
      val p = math.floorMod(String.valueOf(r.get(pkIdx)).hashCode, NumPartitions)
      partitions(p) += r
    }
    rows += frame.size
  }

  def count: Long = rows

  /** Rows per storage partition (for balance assertions). */
  def partitionSizes: Seq[Int] = synchronized(partitions.map(_.size).toSeq)

  /** Materialize the stored dataset. Empty sink ⇒ empty DataFrame with an
    * empty schema is meaningless, so callers must check `count` first.
    */
  def toDf(spark: SparkSession): DataFrame = synchronized {
    require(schema != null, "storage sink is empty — nothing was ingested")
    LocalFrames.ofRows(spark, schema)(partitions.iterator.flatten)
  }
}
