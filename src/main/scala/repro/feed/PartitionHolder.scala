package repro.feed

import java.util.concurrent.{ArrayBlockingQueue, ConcurrentHashMap}

/** A bounded in-memory frame queue that lets data cross job boundaries —
  * the paper's *partition holder* operator (§5.3).
  *
  * The paper distinguishes **passive** holders (tail of the intake job;
  * computing jobs *pull* batches) and **active** holders (head of the
  * storage job; computing jobs *push* enriched frames, the holder forwards
  * them downstream). Both reduce to a bounded blocking queue plus a
  * direction convention, so a single class serves both roles:
  * intake-side consumers call [[pull]], storage-side producers call
  * [[push]]. Capacity bounds memory exactly as the paper's "queue with a
  * limited size".
  *
  * Shutdown follows the paper's EOF protocol: [[close]] enqueues a special
  * EOF frame; a consumer that sees it finishes with whatever it has
  * collected, and every later [[pull]] returns `None` immediately.
  */
final class PartitionHolder[T](val id: String, val capacity: Int) {
  private val queue = new ArrayBlockingQueue[AnyRef](capacity)
  @volatile private var drained = false

  /** Blocking enqueue of one frame. */
  def push(frame: T): Unit = queue.put(frame.asInstanceOf[AnyRef])

  /** Blocking dequeue; `None` once the EOF frame has been consumed. */
  def pull(): Option[T] = {
    if (drained && queue.isEmpty) return None
    queue.take() match {
      case PartitionHolder.Eof =>
        drained = true
        None
      case f => Some(f.asInstanceOf[T])
    }
  }

  /** Enqueue the EOF sentinel; no frames may be pushed afterwards. */
  def close(): Unit = queue.put(PartitionHolder.Eof)

  /** Frames currently buffered (excluding a pending EOF sentinel). */
  def size: Int = queue.asScalaCount

  private implicit class QueueOps(q: ArrayBlockingQueue[AnyRef]) {
    def asScalaCount: Int = {
      val it = q.iterator()
      var n = 0
      while (it.hasNext) { if (it.next() ne PartitionHolder.Eof) n += 1 }
      n
    }
  }

  def isDrained: Boolean = drained
}

object PartitionHolder {
  private object Eof
}

/** Per-node registry the paper uses so jobs can locate each other's
  * partition holders by ID (§5.3). One manager per JVM here (single-node).
  */
object PartitionHolderManager {
  private val holders = new ConcurrentHashMap[String, PartitionHolder[_]]()

  def register[T](holder: PartitionHolder[T]): PartitionHolder[T] = {
    val prev = holders.putIfAbsent(holder.id, holder)
    require(prev == null, s"partition holder '${holder.id}' already registered")
    holder
  }

  def unregister(id: String): Unit = holders.remove(id)
}
