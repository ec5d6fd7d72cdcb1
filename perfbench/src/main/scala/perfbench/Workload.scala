package perfbench

import java.nio.file.{Files, Path, Paths}
import java.util.Comparator
import scala.collection.mutable

/** Figures one pass produced: end-to-end values, per-layer values (traced
  * passes only) and the per-batch waits that are pooled across passes.
  */
final class PassOutcome {
  val e2e    = mutable.LinkedHashMap.empty[String, Double]
  val layers = mutable.LinkedHashMap.empty[String, Double]
  var batchWaitsMs: Seq[Double] = Nil
}

/** A seeded workload: built several times (set-up), then run as repeated
  * passes; a pass drives the program the way one pipeline trigger does.
  */
trait Workload {
  /** Build the corpus under `dir`; returns the nanoseconds of the set-up
    * proper (corpus generation and registry ingest).
    */
  def setup(dir: String): Long

  /** Run pass `p`, counting and timing layers when `traced`. */
  def pass(p: Int, traced: Boolean, out: PassOutcome): Unit

  /** Per-layer replays run once after the passes of a traced run. */
  def replays(out: mutable.Map[String, Double]): Unit

  /** Cross-pass checks, run after the last pass. */
  def finish(): Unit = ()

  def close(): Unit
}

object Dirs {
  /** Delete `dir` and everything below it, if it exists. */
  def deleteTree(dir: String): Unit = {
    val p: Path = Paths.get(dir)
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.sorted(Comparator.reverseOrder[Path]()).forEach(x => Files.deleteIfExists(x))
      finally s.close()
    }
  }
}
