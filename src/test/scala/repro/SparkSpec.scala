package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.types.StructType
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** A decoder of rows encoded with `schema`, such as a prepared computing
    * job's output (built from `job.schema`), into external `Row`s.
    */
  def decoder(schema: StructType): Array[InternalRow] => Seq[Row] = {
    val fromRow = ExpressionEncoder(schema).resolveAndBind().createDeserializer()
    rows => rows.toSeq.map(fromRow)
  }

  /** Spark jobs started by `body` on this thread. A marker job started
    * afterwards is seen by the listener only after every job before it.
    */
  def jobsStartedBy(body: => Unit): Int = {
    val sc = spark.sparkContext
    val key = "SparkSpec.phase"
    val started = new AtomicInteger()
    val marker = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty(key))) match {
          case Some("body") => started.incrementAndGet()
          case Some("marker") => marker.countDown()
          case _ =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setLocalProperty(key, "body")
      body
      sc.setLocalProperty(key, "marker")
      sc.parallelize(Seq(1), 1).count()
      assert(marker.await(60, TimeUnit.SECONDS), "marker job never reached the listener")
      started.get
    } finally {
      sc.setLocalProperty(key, null)
      sc.removeSparkListener(listener)
    }
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
