package perfbench

import java.util.concurrent.ConcurrentHashMap

import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler._

/** Per-batch counts of the Spark substrate. The traced driver tags every
  * Spark job of batch `k` with the local property [[SparkCounters.BatchKey]]
  * = k; untagged jobs (untraced feeds, warm-up, checks) are ignored.
  */
final class SparkCounters extends SparkListener {
  import SparkCounters._

  private val stageBatch = new ConcurrentHashMap[Int, Int]()
  private val openJobs = ConcurrentHashMap.newKeySet[Int]()
  private val counts = new ConcurrentHashMap[(Int, String), Double]()

  private def add(batch: Int, key: String, v: Double): Unit =
    counts.merge((batch, key), v, (a: Double, b: Double) => a + b)

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty(BatchKey))).foreach { b =>
      openJobs.add(e.jobId)
      add(b.toInt, Jobs, 1)
      e.stageIds.foreach(stageBatch.put(_, b.toInt))
    }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = openJobs.remove(e.jobId)

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    Option(stageBatch.get(e.stageInfo.stageId)).foreach(add(_, Stages, 1))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageBatch.get(e.stageId)).foreach { b =>
      add(b, Tasks, 1)
      Option(e.taskMetrics).foreach { m =>
        add(b, ShuffleBytes, m.shuffleWriteMetrics.bytesWritten.toDouble)
        add(b, CpuMs, m.executorCpuTime / 1e6)
      }
    }

  /** Wait until the listener bus has delivered the end of every tagged job;
    * a job's task and stage events are queued before its end.
    */
  def awaitDrained(timeoutMs: Long): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    while (!openJobs.isEmpty) {
      require(System.currentTimeMillis() < deadline, s"${openJobs.size} traced Spark jobs never ended")
      Thread.sleep(5)
    }
  }

  /** Counts per batch, then cleared for the next traced feed. */
  def drain(): Map[Int, Map[String, Double]] = {
    val out = counts.asScala.toSeq.groupBy(_._1._1).map { case (b, kvs) =>
      b -> kvs.map { case ((_, k), v) => k -> v }.toMap
    }
    counts.clear()
    stageBatch.clear()
    out
  }
}

object SparkCounters {
  val BatchKey = "perfbench.batch"
  val Jobs = "jobs"
  val Stages = "stages"
  val Tasks = "tasks"
  val ShuffleBytes = "shuffle_bytes"
  val CpuMs = "task_cpu_ms"
}
