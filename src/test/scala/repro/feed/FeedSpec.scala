package repro.feed

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{LongType, StructField, StructType}

import repro.SparkSpec
import repro.data.{Tweet, TweetData}

/** Partition holders, feed source framing/EOF, and the storage sink. */
class FeedSpec extends SparkSpec {

  // --- PartitionHolder ----------------------------------------------------

  test("push/pull round-trips frames in order") {
    val h = new PartitionHolder[Int]("t1", 8)
    h.push(1); h.push(2); h.push(3)
    assert(h.pull() == Some(1))
    assert(h.pull() == Some(2))
    assert(h.pull() == Some(3))
  }

  test("pull after close returns None and marks drained") {
    val h = new PartitionHolder[Int]("t2", 8)
    h.push(7)
    h.close()
    assert(h.pull() == Some(7))
    assert(h.pull() == None)
    assert(h.pull() == None) // stays drained, non-blocking
  }

  test("size excludes the EOF sentinel") {
    val h = new PartitionHolder[Int]("t3", 8)
    h.push(1); h.close()
    assert(h.size == 1)
  }

  test("capacity bounds the queue (producer blocks)") {
    val h = new PartitionHolder[Int]("t4", 2)
    h.push(1); h.push(2)
    val producer = new Thread(() => h.push(3))
    producer.start()
    producer.join(200)
    assert(producer.isAlive, "producer should block on a full holder")
    assert(h.pull() == Some(1))
    producer.join(2000)
    assert(!producer.isAlive)
    assert(h.pull() == Some(2))
    assert(h.pull() == Some(3))
  }

  test("consumer blocks until a frame arrives") {
    val h = new PartitionHolder[Int]("t5", 2)
    @volatile var got: Option[Int] = None
    val consumer = new Thread(() => got = h.pull())
    consumer.start()
    consumer.join(100)
    assert(consumer.isAlive)
    h.push(42)
    consumer.join(2000)
    assert(got == Some(42))
  }

  // --- PartitionHolderManager --------------------------------------------

  test("manager register returns the holder") {
    val h = new PartitionHolder[Int]("mgr-a", 4)
    try assert(PartitionHolderManager.register(h) eq h)
    finally PartitionHolderManager.unregister("mgr-a")
  }

  test("manager rejects duplicate ids") {
    PartitionHolderManager.register(new PartitionHolder[Int]("mgr-b", 4))
    try intercept[IllegalArgumentException] {
      PartitionHolderManager.register(new PartitionHolder[Int]("mgr-b", 4))
    } finally PartitionHolderManager.unregister("mgr-b")
  }

  // --- FeedSource ---------------------------------------------------------

  private def drainAll[T](h: PartitionHolder[T]): Seq[T] = {
    val out = ArrayBuffer.empty[T]
    var n = h.pull()
    while (n.isDefined) { out += n.get; n = h.pull() }
    out.toSeq
  }

  test("feed frames the stream into batchSize groups, last partial") {
    val tweets = TweetData.localTweets(25)
    val h = new PartitionHolder[Seq[Tweet]]("fs1", 16)
    new FeedSource(tweets, 10).start(h).join()
    val frames = drainAll(h)
    assert(frames.map(_.size) == Seq(10, 10, 5))
    assert(frames.flatten == tweets)
  }

  test("feed closes the holder at end of stream") {
    val h = new PartitionHolder[Seq[Tweet]]("fs2", 16)
    new FeedSource(TweetData.localTweets(5), 5).start(h).join()
    assert(h.pull().isDefined)
    assert(h.pull().isEmpty)
  }

  test("empty feed produces only EOF") {
    val h = new PartitionHolder[Seq[Tweet]]("fs3", 4)
    new FeedSource(Seq.empty, 5).start(h).join()
    assert(h.pull().isEmpty)
  }

  test("rate-limited feed takes at least the prescribed time") {
    val tweets = TweetData.localTweets(100)
    val h = new PartitionHolder[Seq[Tweet]]("fs4", 64)
    val t0 = System.nanoTime()
    new FeedSource(tweets, 20, ratePerSec = Some(500.0)).start(h).join()
    val ms = (System.nanoTime() - t0) / 1000000
    assert(ms >= 150, s"100 records at 500 rec/s should take >=200ms-ish, took ${ms}ms")
  }

  test("rate-limited feed pushes each frame on schedule, not after the last push") {
    // 10-record frames at 1000 rec/s: frame k (from 1) is due 10k ms after
    // the start. A consumer stalls 200 ms on frame 2 while the holder holds
    // one frame, so the push of frame 4 blocks until about 220 ms.
    val h = new PartitionHolder[Seq[Tweet]]("fs5", 1)
    val t0 = System.nanoTime()
    val intake = new FeedSource(TweetData.localTweets(600), 10, ratePerSec = Some(1000.0)).start(h)
    val pulledMs = ArrayBuffer.empty[Double]
    var next = h.pull()
    while (next.isDefined) {
      pulledMs += (System.nanoTime() - t0) / 1e6
      if (pulledMs.size == 2) Thread.sleep(200)
      next = h.pull()
    }
    intake.join()
    val lateMs = pulledMs.zipWithIndex.map { case (at, i) => at - 10.0 * (i + 1) }
    assert(lateMs.size == 60)
    assert(lateMs.forall(_ >= 0), s"a frame was pushed before it was due: $lateMs")
    // Frames due from 350 ms on come after the catch-up that follows the stall.
    val after = lateMs.drop(34)
    assert(after.max < 100, s"the stall carried over to later frames (ms late): $after")
  }

  test("feed rejects non-positive batch size") {
    intercept[IllegalArgumentException] { new FeedSource(Seq.empty, 0) }
  }

  // --- StorageSink --------------------------------------------------------

  private val idSchema = StructType(Seq(StructField("id", LongType)))

  test("sink counts appended rows") {
    val s = new StorageSink()
    s.append(Seq(Row(1L), Row(2L)), idSchema)
    s.append(Seq(Row(3L)), idSchema)
    assert(s.count == 3)
  }

  test("sink hash-partitions by primary key") {
    val s = new StorageSink()
    s.append((0 until 1000).map(i => Row(i.toLong)), idSchema)
    val sizes = s.partitionSizes
    assert(sizes.sum == 1000)
    assert(sizes.forall(_ > 150), s"partitions should be roughly balanced: $sizes")
  }

  test("sink rejects schema changes mid-feed") {
    val s = new StorageSink()
    s.append(Seq(Row(1L)), idSchema)
    val other = StructType(Seq(StructField("id", LongType), StructField("x", LongType)))
    intercept[IllegalArgumentException] { s.append(Seq(Row(1L, 2L)), other) }
  }

  test("sink materializes back to a DataFrame") {
    val s = new StorageSink()
    s.append((0 until 10).map(i => Row(i.toLong)), idSchema)
    val df = s.toDf(spark)
    assert(df.count() == 10)
    assert(df.columns.toSeq == Seq("id"))
  }

  test("empty sink refuses to materialize") {
    intercept[IllegalArgumentException] { new StorageSink().toDf(spark) }
  }
}
