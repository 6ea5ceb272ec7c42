package repro.feed

import repro.data.Tweet

/** The intake-job front end: the paper's feed *adapter* + round-robin
  * partitioner, reduced to a single node. It turns a finite tweet sequence
  * into fixed-size frames, optionally throttled to an arrival rate, and
  * feeds them into a passive [[PartitionHolder]] from which computing jobs
  * pull.
  *
  * A socket server is deliberately not used: the experiments need a
  * deterministic, rate-controllable source, and the adapter's job (bytes in,
  * frames out) is fully exercised by the queue hand-off.
  */
final class FeedSource(
    tweets: Seq[Tweet],
    batchSize: Int,
    ratePerSec: Option[Double] = None) {

  require(batchSize > 0, s"batchSize must be positive, got $batchSize")

  /** Start the intake thread: frames are pushed until the source is
    * exhausted, then the holder is closed (EOF). Interrupting the thread
    * stops it without EOF. Returns the running thread so callers can join
    * or interrupt it.
    */
  def start(holder: PartitionHolder[Seq[Tweet]]): Thread = {
    val t = new Thread(() => {
      val perRecordNanos = ratePerSec.map(r => (1e9 / r).toLong)
      try {
        tweets.grouped(batchSize).foreach { frame =>
          perRecordNanos.foreach { n =>
            val sleepMs = frame.size * n / 1000000
            if (sleepMs > 0) Thread.sleep(sleepMs)
          }
          holder.push(frame)
        }
        holder.close()
      } catch { case _: InterruptedException => } // the feed stopped: nobody pulls any more
    }, s"feed-intake-${System.identityHashCode(this)}")
    t.setDaemon(true)
    t.start()
    t
  }
}
