package repro.trainer

import java.util.Arrays
import java.util.concurrent.ArrayBlockingQueue
import java.util.concurrent.atomic.AtomicReference
import scala.collection.mutable

/** The §4.2.1 dataloader skeleton shared by [[OnlineDataset]] and
  * [[LocalFileDataset]]: `numWorkers` named daemon threads each run
  * `produce`, fill batches of `batchSize` parsed samples and hand each
  * whole batch to their own bounded queue; the consumer takes batches from
  * the workers round-robin.
  *
  * The first failure of any producer is recorded; the worker then leaves
  * the rotation (its unfinished batch is dropped), and the failure is
  * rethrown to the consumer once every worker has finished.
  */
private[trainer] object WorkerBatches {

  private object WorkerDone

  /** What one producer sees: the batch it is filling, its output queue and
    * the shared failure flag. Only the producer's own thread may `emit`.
    */
  final class Emitter private[WorkerBatches] (batchSize: Int,
                                              queue: ArrayBlockingQueue[AnyRef],
                                              failure: AtomicReference[Throwable]) {
    private var keys: Array[Long]       = _
    private var xs: Array[Array[Float]] = _
    private var ys: Array[Int]          = _
    private var ws: Array[Double]       = _
    private var n                       = 0
    newBatch()

    private def newBatch(): Unit = {
      keys = new Array[Long](batchSize)
      xs = new Array[Array[Float]](batchSize)
      ys = new Array[Int](batchSize)
      ws = new Array[Double](batchSize)
      n = 0
    }

    def emit(key: Long, x: Array[Float], label: Int, weight: Double): Unit = {
      keys(n) = key; xs(n) = x; ys(n) = label; ws(n) = weight
      n += 1
      if (n == batchSize) {
        queue.put(TrainBatch(keys, xs, ys, ws))
        newBatch()
      }
    }

    /** Hand off the final partial batch, if any. */
    private[WorkerBatches] def flush(): Unit = if (n > 0)
      queue.put(TrainBatch(Arrays.copyOf(keys, n), Arrays.copyOf(xs, n),
        Arrays.copyOf(ys, n), Arrays.copyOf(ws, n)))

    /** Whether any producer (or helper thread) has failed. */
    def failed: Boolean = failure.get() != null
    /** Record a failure from a helper thread; the first one wins. */
    def fail(e: Throwable): Unit = failure.compareAndSet(null, e)
  }

  /** Start `numWorkers` threads named `threadName-<w>` running
    * `produce(w, emitter)` and return the round-robin batches. Worker w's
    * k-th batch holds samples `[k * batchSize, (k + 1) * batchSize)` of its
    * emissions. The iterator must be fully consumed; producer errors are
    * rethrown here after every worker thread has ended.
    */
  def apply(numWorkers: Int, batchSize: Int, threadName: String)
           (produce: (Int, Emitter) => Unit): Iterator[TrainBatch] = {
    val failure = new AtomicReference[Throwable](null)
    // Each queue holds at most max(64, 4 * batchSize) samples.
    val queues  = IndexedSeq.fill(numWorkers)(
      new ArrayBlockingQueue[AnyRef](math.max(64, 4 * batchSize) / batchSize))

    val threads = queues.indices.map { w =>
      val t = new Thread(() => {
        try {
          val out = new Emitter(batchSize, queues(w), failure)
          produce(w, out)
          out.flush()
        } catch { case e: Throwable => failure.compareAndSet(null, e) }
        finally queues(w).put(WorkerDone)
      }, s"$threadName-$w")
      t.setDaemon(true)
      t.start()
      t
    }

    // Round-robin assembly (§4.2.1): take one batch from a worker, yield
    // it, move to the next; a finished worker leaves the rotation.
    new Iterator[TrainBatch] {
      private val active    = mutable.Queue.empty[Int] ++ queues.indices
      private var nextBatch: TrainBatch = null

      override def hasNext: Boolean = {
        while (nextBatch == null && active.nonEmpty) {
          val w = active.dequeue()
          queues(w).take() match {
            case b: TrainBatch => active.enqueue(w); nextBatch = b
            case WorkerDone    =>
            case other         => throw new IllegalStateException(s"unexpected $other")
          }
        }
        if (nextBatch == null) {
          threads.foreach(_.join())
          if (failure.get() != null) throw failure.get()
        }
        nextBatch != null
      }

      override def next(): TrainBatch = {
        if (!hasNext) throw new NoSuchElementException("no more batches")
        val b = nextBatch
        nextBatch = null
        b
      }
    }
  }
}
