package perfbench

/** Minimal JSON rendering for the benchmark's result lines and files. */
object Json {
  def render(v: Any): String = v match {
    case null                => "null"
    case s: String           => quote(s)
    case b: Boolean          => b.toString
    case i: Int              => i.toString
    case l: Long             => l.toString
    case d: Double           =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      java.lang.Double.toString(d)
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ": " + render(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]     => xs.map(render).mkString("[", ", ", "]")
    case other               => throw new IllegalArgumentException(s"cannot render $other")
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c    => sb += c
    }
    (sb += '"').toString
  }
}
