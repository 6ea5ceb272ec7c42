package repro.feed

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.Attribute
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read.{LocalScan, Scan, ScanBuilder}
import org.apache.spark.sql.execution.datasources.v2.{DataSourceV2Relation, DataSourceV2ScanRelation}
import org.apache.spark.sql.types.StructType
import org.apache.spark.sql.util.CaseInsensitiveStringMap

/** Driver-side rows as DataFrames whose logical plan holds a table, not the
  * rows.
  *
  * `spark.createDataFrame` inlines every row into a `LocalRelation`, and
  * each analyzer and optimizer rule that maps over a plan's expressions
  * walks those rows, so planning a frame costs time in proportion to its
  * size. A frame built here is a DSv2 table whose scan is a `LocalScan`:
  * the logical plan references the table, and Spark's `DataSourceV2Strategy`
  * plans the scan into the same `LocalTableScanExec` a `LocalRelation`
  * becomes, so physical plans, `broadcast()` hints and join strategies do
  * not change. Schemas, nullability included, equal `spark.createDataFrame`'s
  * for the same input.
  *
  * The table reaches Spark through the public reader API: it waits in
  * `frames` under a fresh id only while `load()` resolves it, and is removed
  * as soon as `load()` returns. The table also identifies the frame in the
  * plans of queries over it ([[tableOf]], [[scans]]), which is how a
  * prepared computing job finds the scans to rebind.
  */
object LocalFrames {

  private val FrameOption = "frame"
  private val frames = new ConcurrentHashMap[String, FrameTable]()
  private val nextId = new AtomicLong()

  /** A frame over rows already encoded with `schema`. The frame reads
    * `rows` itself, not a copy, so the caller must not change them.
    */
  def ofInternalRows(spark: SparkSession, schema: StructType, rows: Array[InternalRow]): DataFrame = {
    val id = nextId.incrementAndGet().toString
    frames.put(id, new FrameTable(schema, rows))
    try spark.read.format(classOf[Provider].getName).option(FrameOption, id).load()
    finally frames.remove(id)
  }

  /** The table a frame built here reads, which identifies the frame in
    * the plans of every query over it.
    */
  private[repro] def tableOf(frame: DataFrame): Table =
    frame.queryExecution.analyzed.collectFirst {
      case r: DataSourceV2Relation if r.table.isInstanceOf[FrameTable] => r.table
    }.getOrElse(throw new IllegalArgumentException("not a local frame"))

  /** Each scan of a local frame in an optimized plan, subqueries included:
    * the frame's table and the attributes the scan outputs.
    */
  private[repro] def scans(plan: LogicalPlan): Seq[(Table, Seq[Attribute])] = plan.collectWithSubqueries {
    case s: DataSourceV2ScanRelation if s.relation.table.isInstanceOf[FrameTable] =>
      (s.relation.table, s.output)
  }

  /** Frames handed to Spark whose `load()` has not returned. */
  private[feed] def pending: Int = frames.size

  private def table(options: java.util.Map[String, String]): FrameTable =
    Option(options.get(FrameOption)).flatMap(id => Option(frames.get(id))).getOrElse(
      throw new IllegalStateException(s"no local frame under option '$FrameOption'"))

  /** Found by class name by `spark.read.format`; needs a no-argument
    * constructor.
    */
  final class Provider extends TableProvider {
    override def inferSchema(options: CaseInsensitiveStringMap): StructType = table(options).schema

    override def getTable(
        schema: StructType,
        partitioning: Array[Transform],
        properties: java.util.Map[String, String]): Table = table(properties)
  }

  /** The table, its scan builder and its scan in one: the frame is fixed,
    * so there is nothing to push down or to build.
    */
  private final class FrameTable(frameSchema: StructType, data: Array[InternalRow])
      extends Table with SupportsRead with ScanBuilder with LocalScan {
    override def name: String = "local_frame"
    override def schema: StructType = frameSchema
    override def readSchema: StructType = frameSchema
    override def capabilities: java.util.Set[TableCapability] =
      java.util.EnumSet.of(TableCapability.BATCH_READ)
    override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder = this
    override def build(): Scan = this
    override def rows(): Array[InternalRow] = data
  }
}
