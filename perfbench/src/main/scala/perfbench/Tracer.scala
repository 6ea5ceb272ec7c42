package perfbench

import java.util.concurrent.atomic.AtomicInteger

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. `parent` is the id of the enclosing span,
  * or -1; spans of one computing job share `feed` and `batch` (1-based).
  */
final case class Span(id: Int, name: String, feed: Int, batch: Int, parent: Int,
                      startNs: Long, endNs: Long, thread: String) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** In-memory span recorder, safe for the computing and storage threads. */
final class Tracer {
  private val ids = new AtomicInteger()
  private val buf = ArrayBuffer.empty[Span]
  @volatile private var feed = 0

  /** Start numbering the spans of the next feed. */
  def nextFeed(): Int = { feed += 1; feed }

  /** Time `body`, which receives the new span's id for its children. */
  def span[T](name: String, batch: Int, parent: Int = -1)(body: Int => T): T = {
    val id = ids.getAndIncrement()
    val t0 = System.nanoTime()
    try body(id)
    finally {
      val s = Span(id, name, feed, batch, parent, t0, System.nanoTime(), Thread.currentThread().getName)
      buf.synchronized(buf += s)
    }
  }

  def spans: Seq[Span] = buf.synchronized(buf.toList).sortBy(_.id)
}

object Tracer {

  /** The root span of one computing job, as `IngestionReport.batchDurationsMs`
    * times it: from the pulled batch to the pushed result.
    */
  val Batch = "core.batch"

  /** Every span name the traced driver records, by layer. */
  val Names: Seq[String] = Seq(
    "feed.intake.wait", "core.todf", "refstore.snapshot", "core.java_compile",
    "core.plan", "core.exec", "feed.storage.push", "feed.storage.append",
    "refstore.upsert", Batch)

  /** Self time of each span: its duration minus the time its direct
    * children cover (children of one span never overlap here).
    */
  def selfMs(spans: Seq[Span]): Map[Int, Double] = {
    val childMs = spans.filter(_.parent >= 0).groupMapReduce(_.parent)(_.ms)(_ + _)
    spans.map(s => s.id -> (s.ms - childMs.getOrElse(s.id, 0.0))).toMap
  }

  /** The trace file: every span, and the Spark counts of every traced batch
    * keyed by (feed, batch).
    */
  def toJson(workload: String, seed: Long, spans: Seq[Span],
             perBatch: Seq[((Int, Int), Map[String, Double])]): String = {
    val origin = if (spans.isEmpty) 0L else spans.map(_.startNs).min
    val spanJson = spans.map(s => Json.obj(Seq(
      "id" -> s.id, "name" -> s.name, "feed" -> s.feed, "batch" -> s.batch, "parent" -> s.parent,
      "start_us" -> (s.startNs - origin) / 1000.0, "end_us" -> (s.endNs - origin) / 1000.0,
      "thread" -> s.thread)))
    val batchJson = perBatch.sortBy(_._1).map { case ((f, b), m) =>
      Json.obj(Seq("feed" -> f, "batch" -> b) ++ m.toSeq.sortBy(_._1))
    }
    Seq(
      "{" + s"${Json.str("workload")}:${Json.str(workload)},${Json.str("seed")}:$seed,",
      s"${Json.str("spans")}:[\n" + spanJson.mkString(",\n") + "\n],",
      s"${Json.str("spark_per_batch")}:[\n" + batchJson.mkString(",\n") + "\n]}",
    ).mkString("\n")
  }
}
