package repro.trainer

import java.util.concurrent.ArrayBlockingQueue
import java.util.concurrent.atomic.AtomicReference
import scala.collection.mutable

/** The §4.2.1 dataloader skeleton shared by [[OnlineDataset]] and
  * [[LocalFileDataset]]: `numWorkers` named daemon threads each run
  * `produce` and emit parsed samples into their own bounded queue, and the
  * consumer takes batches from the workers round-robin.
  *
  * The first failure of any producer is recorded; the worker then leaves
  * the rotation, and the failure is rethrown to the consumer once every
  * worker has finished.
  */
private[trainer] object WorkerBatches {

  private final case class Sample(key: Long, x: Array[Float], label: Int, weight: Double)
  private object WorkerDone

  /** What one producer sees: its output queue and the shared failure flag. */
  final class Emitter private[WorkerBatches] (queue: ArrayBlockingQueue[AnyRef],
                                              failure: AtomicReference[Throwable]) {
    def emit(key: Long, x: Array[Float], label: Int, weight: Double): Unit =
      queue.put(Sample(key, x, label, weight))
    /** Whether any producer (or helper thread) has failed. */
    def failed: Boolean = failure.get() != null
    /** Record a failure from a helper thread; the first one wins. */
    def fail(e: Throwable): Unit = failure.compareAndSet(null, e)
  }

  /** Start `numWorkers` threads named `threadName-<w>` running
    * `produce(w, emitter)` and return the round-robin batches. The iterator
    * must be fully consumed; producer errors are rethrown here.
    */
  def apply(numWorkers: Int, batchSize: Int, threadName: String)
           (produce: (Int, Emitter) => Unit): Iterator[TrainBatch] = {
    val failure = new AtomicReference[Throwable](null)
    val queues  = IndexedSeq.fill(numWorkers)(
      new ArrayBlockingQueue[AnyRef](math.max(64, 4 * batchSize)))

    queues.indices.foreach { w =>
      val t = new Thread(() => {
        try produce(w, new Emitter(queues(w), failure))
        catch { case e: Throwable => failure.compareAndSet(null, e) }
        finally queues(w).put(WorkerDone)
      }, s"$threadName-$w")
      t.setDaemon(true)
      t.start()
    }

    // Round-robin assembly (§4.2.1): take up to `batchSize` samples from
    // one worker, yield the batch, move to the next; a worker that
    // finishes yields its final partial batch and leaves the rotation.
    new Iterator[TrainBatch] {
      private val active    = mutable.Queue.empty[Int] ++ queues.indices
      private var nextBatch = fetchNext()

      private def fetchNext(): Option[TrainBatch] = {
        while (active.nonEmpty) {
          val w    = active.dequeue()
          val keys = Array.newBuilder[Long]
          val xs   = Array.newBuilder[Array[Float]]
          val ys   = Array.newBuilder[Int]
          val ws   = Array.newBuilder[Double]
          var n    = 0
          var done = false
          while (n < batchSize && !done) {
            queues(w).take() match {
              case WorkerDone => done = true
              case s: Sample  =>
                keys += s.key; xs += s.x; ys += s.label; ws += s.weight; n += 1
              case other => throw new IllegalStateException(s"unexpected $other")
            }
          }
          if (!done) active.enqueue(w)
          if (n > 0) return Some(TrainBatch(keys.result(), xs.result(), ys.result(), ws.result()))
        }
        if (failure.get() != null) throw failure.get()
        None
      }

      override def hasNext: Boolean = nextBatch.isDefined
      override def next(): TrainBatch = { val b = nextBatch.get; nextBatch = fetchNext(); b }
    }
  }
}
