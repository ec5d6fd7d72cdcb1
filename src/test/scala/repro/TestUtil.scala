package repro

import java.nio.file.Files
import java.util.Comparator
import scala.jdk.CollectionConverters._

/** Shared test helpers: temp-dir scoping, the expected batch order and the
  * live data-path threads.
  */
object TestUtil {

  /** Run `f` with a fresh temp directory, deleting it afterwards. */
  def withTmpDir[T](f: String => T): T = {
    val dir = Files.createTempDirectory("repro-test")
    try f(dir.toString)
    finally {
      Files.walk(dir).sorted(Comparator.reverseOrder())
        .forEach(p => Files.deleteIfExists(p))
    }
  }

  /** The §4.2.1 batch order over each worker's emission order: up to
    * `batchSize` items from one worker, then the next; a worker that runs
    * out yields its partial batch and leaves the rotation.
    */
  def roundRobin[T](perWorker: Seq[Seq[T]], batchSize: Int): Seq[Seq[T]] = {
    val rest  = scala.collection.mutable.Queue(perWorker: _*)
    val out   = Seq.newBuilder[Seq[T]]
    while (rest.nonEmpty) {
      val items = rest.dequeue()
      val batch = items.take(batchSize)
      // A full batch cannot tell the worker is done; it returns to the
      // rotation and leaves on its next (empty) turn.
      if (batch.size == batchSize) rest.enqueue(items.drop(batchSize))
      if (batch.nonEmpty) out += batch
    }
    out.result()
  }

  /** Live dataloader worker and prefetch threads. */
  def dataPathThreads(): Set[Thread] =
    Thread.getAllStackTraces.keySet.asScala.filter { t =>
      t.isAlive && Seq("online-dataset-worker-", "local-dataset-worker-", "prefetch-")
        .exists(t.getName.startsWith)
    }.toSet
}
