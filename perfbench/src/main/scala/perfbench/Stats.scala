package perfbench

/** Order statistics used for every reported figure. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no values")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** First and third quartile, computed like Python's
    * `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
    */
  def quartiles(xs: Seq[Double]): (Double, Double) = {
    val s = xs.sorted
    val n = s.length
    if (n < 2) return (s.head, s.head)
    def q(j: Int): Double = {
      val m     = n + 1
      val k     = j * m / 4
      val frac  = j * m % 4
      val lo    = math.max(0, math.min(n - 1, k - 1))
      val hi    = math.max(0, math.min(n - 1, k))
      s(lo) + (s(hi) - s(lo)) * frac / 4.0
    }
    (q(1), q(3))
  }

  /** Nearest-rank percentile `p` in (0, 100]. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no values")
    val s    = xs.sorted
    val rank = math.ceil(p / 100.0 * s.length).toInt
    s(math.max(0, math.min(s.length - 1, rank - 1)))
  }

  /** Length of the union of closed intervals `(start, end)`. */
  def unionLength(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curS  = Long.MinValue
    var curE  = Long.MinValue
    intervals.sortBy(_._1).foreach { case (s, e) =>
      if (s > curE) { if (curE > curS) total += curE - curS; curS = s; curE = e }
      else if (e > curE) curE = e
    }
    if (curE > curS) total += curE - curS
    total
  }
}
