package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import repro.trainer.{Model, TrainBatch}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** An output check that did not hold. */
final class CheckFailed(msg: String) extends RuntimeException(msg)

object Check {
  def ensure(cond: Boolean, msg: => String): Unit = if (!cond) throw new CheckFailed(msg)
}

/** Settings and bookkeeping shared by one benchmark run. */
final class RunContext(val seed: Long, val seconds: Int, val trace: Boolean,
                       val workDir: String, val outDir: String) {
  val tracer = new Tracer
  private var attemptedOps = 0L
  private var failedOps    = 0L
  val failures = mutable.ArrayBuffer.empty[String]

  def attempted: Long = attemptedOps
  def failed: Long    = failedOps

  /** Run one operation. It fails if it throws, which includes a failed
    * output check; the failure is counted and logged, never swallowed.
    */
  def op[A](name: String)(body: => A): Option[A] = {
    attemptedOps += 1
    try Some(body)
    catch {
      case NonFatal(e) =>
        failedOps += 1
        val msg = s"pass ${tracer.pass}: $name failed: $e"
        failures += msg
        System.err.println(msg)
        None
    }
  }

  /** Count an operation that could not run because one it needs failed. */
  def skipped(name: String): Unit = {
    attemptedOps += 1; failedOps += 1
    val msg = s"pass ${tracer.pass}: $name not run, an earlier operation failed"
    failures += msg
    System.err.println(msg)
  }
}

/** Data-path threads of the program that must not outlive a pass. */
object DataPathThreads {
  private val Prefixes = Seq("storage-retrieval", "prefetch-", "online-dataset-worker-")

  /** Names of data-path threads still alive after waiting up to `graceMs`
    * for them to finish their last statements.
    */
  def alive(graceMs: Long = 5000): Seq[String] = {
    val deadline = System.currentTimeMillis() + graceMs
    val threads = Thread.getAllStackTraces.keySet.asScala.toSeq
      .filter(t => Prefixes.exists(t.getName.startsWith))
    threads.foreach(t => t.join(math.max(1L, deadline - System.currentTimeMillis())))
    threads.filter(_.isAlive).map(_.getName)
  }
}

/** Heap high-water mark over the heap memory pools. */
object Heap {
  private def pools = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
  def resetPeak(): Unit = pools.foreach(_.resetPeakUsage())
  def peakMb: Double = pools.map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)
}

/** What a training loop saw: samples, wall time, the time it blocked in
  * the dataset's `hasNext`/`next` per batch, and the time in train steps.
  */
final case class LoopStats(samples: Long, wallNs: Long, batchWaitNs: Array[Long],
                           totalWaitNs: Long, stepNs: Long) {
  def batches: Int = batchWaitNs.length
  def samplesPerSec: Double = samples / (wallNs / 1e9)
  def batchWaitMs: Seq[Double] = batchWaitNs.toSeq.map(_ / 1e6)
}

object TrainLoop {

  /** The closed training loop of §5.1: pull the next batch only after the
    * previous step returned. Timed from the first batch request to the
    * return of the last `trainBatch`.
    */
  def run(batches: => Iterator[TrainBatch], model: Model, tracer: Tracer)
         (onBatch: TrainBatch => Unit): LoopStats = {
    val waits   = mutable.ArrayBuilder.make[Long]
    var samples = 0L
    var stepNs  = 0L
    var waitNs  = 0L
    val t0      = System.nanoTime()
    var w0      = t0
    val it      = batches
    var more    = it.hasNext
    while (more) {
      val b  = it.next()
      val w1 = System.nanoTime()
      waits += w1 - w0
      waitNs += w1 - w0
      model.trainBatch(b.features, b.labels, b.weights)
      val s1 = System.nanoTime()
      stepNs += s1 - w1
      tracer.record("trainer.batch_wait", w0, w1)
      tracer.record("trainer.train_step", w1, s1)
      samples += b.size
      onBatch(b)
      w0 = System.nanoTime()
      more = it.hasNext
    }
    val end = System.nanoTime()
    waitNs += end - w0
    LoopStats(samples, end - t0, waits.result(), waitNs, stepNs)
  }
}

/** Growable primitive buffers for the trained (key, weight) sequence. */
final class KeyLog {
  private val keys    = mutable.ArrayBuilder.make[Long]
  private val weights = mutable.ArrayBuilder.make[Double]
  private var digest  = 0x5EEDL

  def add(b: TrainBatch): Unit = {
    keys.addAll(b.keys); weights.addAll(b.weights)
    var i = 0
    while (i < b.keys.length) { digest = repro.util.Rng.mix2(digest, b.keys(i)); i += 1 }
    digest = repro.util.Rng.mix2(digest, -b.keys.length.toLong) // batch boundary
  }

  /** Digest of the batch key sequence, batch boundaries included. */
  def batchOrderDigest: String = f"$digest%016x"

  /** True iff the trained (key, weight) pairs equal `expected` as a
    * multiset: keys compared exactly, weights as per-key sums.
    */
  def sameMultiset(expected: IndexedSeq[repro.selector.SelectedSample]): Boolean = {
    val k = keys.result()
    val w = weights.result()
    if (k.length != expected.length) return false
    val ek = expected.iterator.map(_.key).toArray
    val sk = k.clone()
    java.util.Arrays.sort(sk); java.util.Arrays.sort(ek)
    if (!java.util.Arrays.equals(sk, ek)) return false
    val sums = new mutable.LongMap[Double](k.length)
    var i = 0
    while (i < k.length) { sums(k(i)) = sums.getOrElse(k(i), 0.0) + w(i); i += 1 }
    expected.foreach(s => sums(s.key) = sums(s.key) - s.weight)
    sums.valuesIterator.forall(d => math.abs(d) < 1e-9)
  }
}
