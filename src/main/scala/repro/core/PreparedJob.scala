package repro.core

import scala.collection.immutable.ArraySeq

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.catalyst.expressions.{Attribute, ExprId, Predicate, UnsafeProjection, UnsafeRow}
import org.apache.spark.sql.catalyst.plans.physical.HashPartitioning
import org.apache.spark.sql.connector.catalog.Table
import org.apache.spark.sql.execution.{FilterExec, InputAdapter, LeafExecNode, LocalTableScanExec, ProjectExec, QueryExecution, SparkPlan, WholeStageCodegenExec}
import org.apache.spark.sql.execution.exchange.{BroadcastExchangeExec, ShuffleExchangeExec}
import org.apache.spark.sql.execution.joins.{CartesianProductExec, ShuffledHashJoinExec, SortMergeJoinExec}
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.types.StructType

import repro.data.Tweet
import repro.feed.LocalFrames
import repro.refstore.ReferenceStore

/** Which UDF is attached to the feed, and how it is evaluated. */
sealed trait EnrichmentSpec
/** Plain ingestion — the computing job just moves data (Figure 24). */
case object NoEnrichment extends EnrichmentSpec
/** Declarative (SQL++-analog) enrichment from [[Enrichments.byName]]. */
final case class SqlEnrichment(name: String) extends EnrichmentSpec {
  require(Enrichments.byName.contains(name), s"unknown SQL enrichment '$name'")
}
/** Per-record (Java-analog) enrichment from [[JavaUdfs]]. */
final case class JavaEnrichment(name: String) extends EnrichmentSpec {
  require(JavaUdfs.supported.contains(name), s"unknown Java enrichment '$name'")
}

/** When intermediate state is (re)built from reference data. */
sealed trait RefreshMode
/** Per computing job — the paper's new framework (Model 2). */
case object Dynamic extends RefreshMode
/** Once at feed start — the current-AsterixDB baseline (Model 3); stale. */
case object Static extends RefreshMode

/** A computing job prepared once (paper §5.1): the enrichment is planned
  * over slot frames and prepared into a physical plan, without adaptive
  * execution, when the job is built; each invocation binds its batch into
  * the plan's batch scans, binds each reference store whose version has
  * changed (Dynamic mode) into that store's scans, and executes the plan.
  *
  * Binding copies exactly the ancestors of the rebound scans. Every other
  * operator is kept, with whatever it has computed: a broadcast over
  * reference data whose version did not change is built once and reused by
  * every later invocation, as are the group-by of `religious_population`
  * and the reference × reference joins of `tweet_context`. Static mode never
  * rebinds references, so its state is built once (Model 3).
  *
  * A Java enrichment compiles reference state into its UDF rather than
  * reading it through scans, so a version change recompiles and re-prepares
  * it; invocations between changes only rebind the batch.
  *
  * [[PreparedJob.apply]] builds the one computing job of both drivers,
  * [[IngestionFramework]] and [[StreamingDriver]]. Not thread-safe: one
  * computing loop invokes the job.
  */
final class PreparedJob private (
    spark: SparkSession,
    stores: RefStoreSet,
    mode: RefreshMode,
    enrich: (DataFrame, Refs) => DataFrame,
    compilesState: Boolean) {

  import PreparedJob._

  private val toRow = ExpressionEncoder[Tweet]().createSerializer()
  private val batchFrame = LocalFrames.ofInternalRows(spark, BatchSchema, Array.empty)
  private val session = batchFrame.queryExecution.sparkSession

  /** The version of each store the plan holds. */
  private var bound: Map[ReferenceStore, ReferenceStore#Version] = stores.all.map { s =>
    s -> (mode match {
      case Static => s.initial
      case Dynamic => s.current
    })
  }.toMap
  private var prepared: Prepared = prepare()

  /** Schema of the rows an invocation returns. */
  val schema: StructType = prepared.schema

  /** The physical plan the next invocation will bind and execute. */
  def plan: SparkPlan = prepared.plan

  /** Invoke the job on one batch of tweets. */
  def apply(batch: Seq[Tweet]): Array[InternalRow] = invoke(batch.iterator.map(toRow(_).copy()).toArray)

  /** Invoke the job on one batch encoded with [[PreparedJob.BatchSchema]]
    * (`UnsafeRow`s, as its encoder makes them); returns the plan's output
    * rows, encoded with [[schema]]. A job with no enrichment returns the
    * batch's own rows.
    */
  def invoke(batch: Array[InternalRow]): Array[InternalRow] = {
    val changed = prepared.reads.map(s => s -> s.current).filter { case (s, v) => v.number != bound(s).number }.toMap
    bound ++= changed
    val rebound: Map[Slot, Seq[InternalRow]] =
      if (changed.isEmpty) Map.empty
      else if (compilesState) { prepared = prepare(); Map.empty }
      else changed.map { case (s, v) => StoreSlot(s) -> ArraySeq.unsafeWrapArray(v.rows) }
    prepared = prepared.copy(plan = bind(prepared.plan, prepared.leaves,
      rebound + (BatchSlot -> ArraySeq.unsafeWrapArray(batch))))
    collect(prepared.plan)
  }

  /** Plan the enrichment over slot frames, the empty batch frame and each
    * store's bound version's frame, and prepare the physical plan.
    */
  private def prepare(): Prepared = {
    val frames = stores.all.map(s => s -> bound(s).frame).toMap
    val df = enrich(batchFrame, stores.refs(frames))
    val slotOf: Map[Table, Slot] =
      frames.map { case (s, f) => LocalFrames.tableOf(f) -> (StoreSlot(s): Slot) } +
        (LocalFrames.tableOf(batchFrame) -> BatchSlot)
    val qe = df.queryExecution
    val leaves: Map[Seq[ExprId], Slot] = LocalFrames.scans(qe.optimizedPlan).map { case (t, out) =>
      out.map(_.exprId) -> slotOf.getOrElse(t, throw new IllegalStateException(
        "the enrichment scans a local frame that is not one of the job's slots"))
    }.toMap
    val scanPartitions = session.sessionState.conf.getConf(SQLConf.LEAF_NODE_DEFAULT_PARALLELISM)
      .getOrElse(session.sparkContext.defaultParallelism)
    val plan = buildOnDriver(
      sizeShuffles(QueryExecution.prepareExecutedPlan(session, qe.sparkPlan), scanPartitions), leaves)
    check(plan, leaves)
    val reads = mode match {
      case Static => Nil
      case Dynamic if compilesState => stores.all
      case Dynamic => leaves.values.collect { case StoreSlot(s) => s }.toSeq.distinct
    }
    Prepared(plan, leaves, reads, df.schema)
  }
}

object PreparedJob {

  /** Build the computing job for `spec` under `mode`. Static mode binds
    * every store's version 0 for good. Dynamic invocations rebind each
    * store the job reads whose version has changed, so each batch sees
    * exactly the upserts applied before it started. With no enrichment the
    * plan is the batch scan alone.
    */
  def apply(spark: SparkSession, spec: EnrichmentSpec, mode: RefreshMode, stores: RefStoreSet): PreparedJob =
    spec match {
      case NoEnrichment =>
        new PreparedJob(spark, stores, mode, (batch, _) => batch, compilesState = false)
      case SqlEnrichment(name) =>
        new PreparedJob(spark, stores, mode, Enrichments.byName(name), compilesState = false)
      case JavaEnrichment(name) =>
        new PreparedJob(spark, stores, mode, (batch, refs) => JavaUdfs.compile(name, refs)(batch),
          compilesState = true)
    }

  /** A job over an enrichment that no spec names: only the build checks'
    * specs use it.
    */
  private[core] def apply(
      spark: SparkSession, stores: RefStoreSet, mode: RefreshMode,
      enrich: (DataFrame, Refs) => DataFrame, compilesState: Boolean): PreparedJob =
    new PreparedJob(spark, stores, mode, enrich, compilesState)

  /** The rows `plan` outputs, in the order `executeCollect()` returns them.
    * A bare scan returns the rows bound into it, with no job: they are the
    * encoder's `UnsafeRow`s already, which `executeCollect()` would copy
    * again. Any other plan runs one Spark job with [[CopyRows]], a named
    * function rather than a lambda, so Spark's closure cleaner reads no
    * class file for it; `executeCollect()` goes through `RDD.collect`, whose
    * two lambdas it cleans on every job.
    */
  private[repro] def collect(plan: SparkPlan): Array[InternalRow] = plan match {
    case s: LocalTableScanExec => s.rows.toArray
    case _ =>
      val rdd = plan.execute()
      rdd.sparkContext.runJob(rdd, CopyRows, rdd.partitions.indices).flatten
  }

  /** One partition's rows, copied: generated code reuses its output row. */
  private object CopyRows extends ((TaskContext, Iterator[InternalRow]) => Array[InternalRow]) with Serializable {
    def apply(context: TaskContext, rows: Iterator[InternalRow]): Array[InternalRow] = rows.map(_.copy()).toArray
  }

  /** Schema of the rows [[PreparedJob.invoke]] takes. */
  val BatchSchema: StructType = ExpressionEncoder[Tweet]().schema

  /** What a scan of the prepared plan reads: the batch, or a store. */
  private sealed trait Slot
  private case object BatchSlot extends Slot
  private final case class StoreSlot(store: ReferenceStore) extends Slot

  /** A prepared plan, its slot scans (keyed by their output attributes),
    * the stores whose versions each invocation checks (none in Static
    * mode), and its output.
    */
  private final case class Prepared(
      plan: SparkPlan,
      leaves: Map[Seq[ExprId], Slot],
      reads: Seq[ReferenceStore],
      schema: StructType)

  private def slotKey(s: LocalTableScanExec): Seq[ExprId] = s.output.map(_.exprId)

  /** Copy `plan` with `rows` bound into the scans of their slots and into
    * the build sides evaluated on the driver over them. An operator none of
    * whose descendants is rebound is kept as it is.
    */
  private def bind(plan: SparkPlan, leaves: Map[Seq[ExprId], Slot], rows: Map[Slot, Seq[InternalRow]]): SparkPlan =
    plan match {
      case s: LocalTableScanExec =>
        leaves.get(slotKey(s)).flatMap(rows.get).fold[SparkPlan](s)(r => s.copy(rows = r))
      case d: DriverSide =>
        leaves.get(slotKey(d.scan)).flatMap(rows.get).fold[SparkPlan](d)(onDriver(d.template, _))
      case p => p.withNewChildren(p.children.map(bind(_, leaves, rows)))
    }

  /** A broadcast's build side evaluated on the driver: `rows` are what
    * `template`, the build side it replaces, outputs over one version of its
    * store. The exchange collects them without a Spark job and builds and
    * broadcasts its relation from them as it would from a collect. The
    * template's scan holds no rows: binding the store's next version
    * evaluates the template again, over that version's rows.
    */
  private[core] final case class DriverSide(template: SparkPlan, rows: Array[InternalRow]) extends LeafExecNode {
    def scan: LocalTableScanExec = template.collectFirst { case s: LocalTableScanExec => s }.get
    override def output: Seq[Attribute] = template.output
    override def executeCollect(): Array[InternalRow] = rows
    override def executeCollectIterator(): (Long, Iterator[InternalRow]) = (rows.length.toLong, rows.iterator)
    override protected def doExecute(): RDD[InternalRow] =
      throw new UnsupportedOperationException(s"$nodeName only serves a broadcast's build side")
    override def simpleString(maxFields: Int): String =
      s"$nodeName ${output.mkString("[", ", ", "]")}, ${rows.length} rows"
  }

  private def onDriver(template: SparkPlan, version: Seq[InternalRow]): DriverSide =
    DriverSide(template, evaluate(template, version).toArray)

  /** The scan of a build side made of a local scan and, above it, only
    * codegen stages, input adapters, filters and projections.
    */
  private def driverScan(p: SparkPlan): Option[LocalTableScanExec] = p match {
    case s: LocalTableScanExec => Some(s)
    case _: WholeStageCodegenExec | _: InputAdapter | _: FilterExec | _: ProjectExec => driverScan(p.children.head)
    case _ => None
  }

  /** The rows that a build side [[driverScan]] accepts outputs when its
    * scan holds `version`, evaluated on the calling thread. They are
    * `UnsafeRow`s, as the exchange's relation needs.
    */
  private def evaluate(p: SparkPlan, version: Seq[InternalRow]): Iterator[InternalRow] = p match {
    case s: LocalTableScanExec =>
      lazy val toUnsafe = UnsafeProjection.create(s.output, s.output)
      version.iterator.map {
        case u: UnsafeRow => u
        case r => toUnsafe(r).copy()
      }
    case f: FilterExec =>
      val keep = Predicate.create(f.condition, f.child.output)
      keep.initialize(0)
      evaluate(f.child, version).filter(keep.eval)
    case pr: ProjectExec =>
      val project = UnsafeProjection.create(pr.projectList, pr.child.output)
      project.initialize(0)
      evaluate(pr.child, version).map(project(_).copy())
    case _ => evaluate(p.children.head, version)
  }

  /** Replace the build side of each broadcast that reads one store slot
    * through codegen stages, input adapters, filters and projections only
    * with a [[DriverSide]] over the rows its scan holds. Every other build
    * side (an aggregate, a window, a join, a generator, the batch) runs as a
    * Spark job, as before.
    */
  private def buildOnDriver(plan: SparkPlan, leaves: Map[Seq[ExprId], Slot]): SparkPlan = plan.transformUp {
    case b: BroadcastExchangeExec if b.child.subqueriesAll.isEmpty =>
      val storeScan = driverScan(b.child).filter(s => leaves.get(slotKey(s)).exists(_.isInstanceOf[StoreSlot]))
      storeScan.fold[SparkPlan](b) { s =>
        val template = bind(b.child, leaves, Map(leaves(slotKey(s)) -> Nil))
        b.withNewChildren(Seq(onDriver(template, s.rows)))
      }
  }

  /** Without adaptive execution nothing coalesces shuffle partitions per
    * batch, so every hash shuffle gets as many partitions as a local scan
    * has.
    */
  private def sizeShuffles(plan: SparkPlan, partitions: Int): SparkPlan = plan.transformUp {
    case s @ ShuffleExchangeExec(h: HashPartitioning, _, _, _) if h.numPartitions != partitions =>
      s.copy(outputPartitioning = h.copy(numPartitions = partitions))
  }

  /** Fail the build if a slot scan cannot be bound, or if the plan holds a
    * join whose children must be co-partitioned (their shuffles were sized
    * apart).
    */
  private def check(plan: SparkPlan, leaves: Map[Seq[ExprId], Slot]): Unit = {
    def slotScans(p: SparkPlan): Seq[Seq[ExprId]] = p.collect {
      case s: LocalTableScanExec if leaves.contains(slotKey(s)) => slotKey(s)
      case d: DriverSide => slotKey(d.scan)
    }
    val inSubqueries = plan.subqueriesAll.flatMap(slotScans)
    if (inSubqueries.nonEmpty)
      throw new IllegalStateException(s"a slot scan sits in a subquery expression:\n${plan.treeString}")
    val unbound = leaves.keySet -- slotScans(plan)
    if (unbound.nonEmpty || !leaves.values.exists(_ == BatchSlot))
      throw new IllegalStateException(s"a slot maps to no scan of the prepared plan:\n${plan.treeString}")
    val coPartitioned = plan.collect {
      case j @ (_: SortMergeJoinExec | _: ShuffledHashJoinExec | _: CartesianProductExec) => j.nodeName
    }
    if (coPartitioned.nonEmpty)
      throw new IllegalStateException(s"the prepared plan holds ${coPartitioned.mkString(", ")}:\n${plan.treeString}")
  }
}
