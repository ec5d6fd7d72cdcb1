package repro.trainer

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.{dataPathThreads, roundRobin}

class WorkerBatchesSpec extends AnyFunSuite {

  /** Worker w emits `perWorker(w)`; `failAt(w)` makes it throw after that
    * many emissions.
    */
  private def run(perWorker: Seq[Seq[Long]], batchSize: Int,
                  failAt: Map[Int, Int] = Map.empty): Iterator[TrainBatch] =
    WorkerBatches(perWorker.size, batchSize, "local-dataset-worker") { (w, out) =>
      perWorker(w).zipWithIndex.foreach { case (k, i) =>
        if (failAt.get(w).contains(i)) throw new IllegalStateException(s"worker $w failed")
        out.emit(k, Array(k.toFloat), k.toInt, k * 0.5)
      }
    }

  /** Keys per batch, checking that features, labels and weights follow them. */
  private def keysOf(b: TrainBatch): Seq[Long] = {
    assert(b.features.map(_.head.toLong).toSeq == b.keys.toSeq)
    assert(b.labels.map(_.toLong).toSeq == b.keys.toSeq)
    assert(b.weights.toSeq == b.keys.map(_ * 0.5).toSeq)
    b.keys.toSeq
  }

  test("a batch size above every worker's share gives one partial batch per worker") {
    val perWorker = Seq(1L to 5L, 11L to 17L, 21L to 23L)
    assert(run(perWorker, 100).map(keysOf).toSeq == perWorker)
  }

  test("a worker with no input yields no batch and the others keep their order") {
    for (empty <- 0 until 3) {
      val perWorker = (0 until 3).map(w => if (w == empty) Seq.empty[Long]
        else (1L to 10L + w).map(_ + 100L * w))
      assert(run(perWorker, 4).map(keysOf).toSeq == roundRobin(perWorker, 4),
        s"worker $empty empty")
    }
  }

  test("a producer failing mid-batch fails the consumer after the other workers' batches") {
    val before    = dataPathThreads()
    val perWorker = Seq(1L to 30L, 101L to 130L, 201L to 230L)
    val it        = run(perWorker, 8, failAt = Map(1 -> 12)) // half of its second batch
    val got       = Seq.newBuilder[Seq[Long]]
    val ex = intercept[IllegalStateException] { it.foreach(b => got += keysOf(b)) }
    assert(ex.getMessage == "worker 1 failed")
    // Worker 1's first batch was handed off before it failed; its
    // unfinished second batch is dropped.
    val expected = roundRobin(Seq(perWorker(0), perWorker(1).take(8), perWorker(2)), 8)
    assert(got.result() == expected)
    assert((dataPathThreads() -- before).isEmpty)
  }
}
