package perfbench

import java.io.PrintWriter
import scala.collection.mutable

/** One timed call into a layer, made from the benchmark's own code. */
final case class Span(id: Long, parent: Long, name: String, pass: Int, startNs: Long, endNs: Long)

/** Times calls into the program's layers. While `on`, every [[timed]] call
  * also records a span (name, start, end, parent, pass id) in memory; the
  * spans are written out once, when the benchmark ends. Used from the
  * main thread only.
  */
final class Tracer {
  var on: Boolean = false
  var pass: Int   = -1
  private val spans  = mutable.ArrayBuffer.empty[Span]
  private var nextId = 1L
  private var stack  = List.empty[Long]

  /** Run `body`, returning its result and elapsed nanoseconds. */
  def timed[A](name: String)(body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    if (!on) { val r = body; (r, System.nanoTime() - t0) }
    else {
      val id = nextId; nextId += 1
      val parent = stack.headOption.getOrElse(0L)
      stack = id :: stack
      try {
        val r  = body
        val t1 = System.nanoTime()
        spans += Span(id, parent, name, pass, t0, t1)
        (r, t1 - t0)
      } finally stack = stack.tail
    }
  }

  /** Record an already measured interval as a child of the current span. */
  def record(name: String, startNs: Long, endNs: Long): Unit = if (on) {
    spans += Span(nextId, stack.headOption.getOrElse(0L), name, pass, startNs, endNs)
    nextId += 1
  }

  def numSpans: Int = spans.length

  /** Write all spans as JSON lines, times relative to the first span. */
  def write(path: String): Unit = {
    val base = if (spans.isEmpty) 0L else spans.map(_.startNs).min
    val w = new PrintWriter(path, "UTF-8")
    try spans.sortBy(_.startNs).foreach { s =>
      w.println(Json.render(Map("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "pass" -> s.pass, "start_us" -> (s.startNs - base) / 1000, "end_us" -> (s.endNs - base) / 1000)))
    } finally w.close()
  }
}
