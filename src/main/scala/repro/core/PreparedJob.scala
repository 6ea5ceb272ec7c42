package repro.core

import scala.collection.immutable.ArraySeq

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.catalyst.expressions.ExprId
import org.apache.spark.sql.catalyst.plans.physical.HashPartitioning
import org.apache.spark.sql.connector.catalog.Table
import org.apache.spark.sql.execution.{LocalTableScanExec, QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.execution.joins.{CartesianProductExec, ShuffledHashJoinExec, SortMergeJoinExec}
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.types.StructType

import repro.data.Tweet
import repro.feed.LocalFrames
import repro.refstore.ReferenceStore

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
  * Not thread-safe: one computing loop invokes the job.
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
  private var bound: Map[ReferenceStore, ReferenceStore.Version] = stores.all.map { s =>
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

  /** Invoke the job on one batch encoded with [[PreparedJob.BatchSchema]];
    * returns the plan's `executeCollect()` output, rows encoded with [[schema]].
    */
  def invoke(batch: Array[InternalRow]): Array[InternalRow] = {
    val changed = mode match {
      case Static => Map.empty[ReferenceStore, ReferenceStore.Version]
      case Dynamic => prepared.reads.map(s => s -> s.current).filter { case (s, v) => v.number != bound(s).number }.toMap
    }
    bound ++= changed
    val rebound: Map[Slot, Seq[InternalRow]] =
      if (changed.isEmpty) Map.empty
      else if (compilesState) { prepared = prepare(); Map.empty }
      else changed.map { case (s, v) => StoreSlot(s) -> ArraySeq.unsafeWrapArray(v.rows) }
    prepared = prepared.copy(plan = bind(prepared.plan, prepared.leaves,
      rebound + (BatchSlot -> ArraySeq.unsafeWrapArray(batch))))
    prepared.plan.executeCollect()
  }

  /** Plan the enrichment over slot frames, the empty batch frame and one
    * frame per store at its bound version, and prepare the physical plan.
    */
  private def prepare(): Prepared = {
    val frames = stores.all.map(s => s -> LocalFrames.ofInternalRows(spark, s.schema, bound(s).rows)).toMap
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
    val plan = sizeShuffles(QueryExecution.prepareExecutedPlan(session, qe.sparkPlan), scanPartitions)
    check(plan, leaves)
    val reads =
      if (compilesState) stores.all
      else leaves.values.collect { case StoreSlot(s) => s }.toSeq.distinct
    Prepared(plan, leaves, reads, df.schema)
  }
}

object PreparedJob {

  private[core] def apply(
      spark: SparkSession, stores: RefStoreSet, mode: RefreshMode,
      enrich: (DataFrame, Refs) => DataFrame, compilesState: Boolean): PreparedJob =
    new PreparedJob(spark, stores, mode, enrich, compilesState)

  /** Schema of the rows [[PreparedJob.invoke]] takes. */
  val BatchSchema: StructType = ExpressionEncoder[Tweet]().schema

  /** What a scan of the prepared plan reads: the batch, or a store. */
  private sealed trait Slot
  private case object BatchSlot extends Slot
  private final case class StoreSlot(store: ReferenceStore) extends Slot

  /** A prepared plan, its slot scans (keyed by their output attributes),
    * the stores whose versions it depends on, and its output.
    */
  private final case class Prepared(
      plan: SparkPlan,
      leaves: Map[Seq[ExprId], Slot],
      reads: Seq[ReferenceStore],
      schema: StructType)

  private def slotKey(s: LocalTableScanExec): Seq[ExprId] = s.output.map(_.exprId)

  /** Copy `plan` with `rows` bound into the scans of their slots. An
    * operator none of whose descendants is rebound is kept as it is.
    */
  private def bind(plan: SparkPlan, leaves: Map[Seq[ExprId], Slot], rows: Map[Slot, Seq[InternalRow]]): SparkPlan =
    plan match {
      case s: LocalTableScanExec =>
        leaves.get(slotKey(s)).flatMap(rows.get).fold[SparkPlan](s)(r => s.copy(rows = r))
      case p => p.withNewChildren(p.children.map(bind(_, leaves, rows)))
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
    def slotScans(p: SparkPlan): Seq[Seq[ExprId]] =
      p.collect { case s: LocalTableScanExec if leaves.contains(slotKey(s)) => slotKey(s) }
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
