package perfbench

import java.nio.file.{Files, Paths, StandardOpenOption}
import perfbench.Check.ensure
import repro.storage.{FileWrapperType, SampleRegistry, StorageService}
import repro.trainer.{BytesParser, Transform}
import repro.util.Rng
import scala.jdk.CollectionConverters._

/** Single-layer replays of a pass's own work, run once after the passes of
  * a traced run so each layer's cost is seen without the others.
  */
object Replay {

  /** The storage service's split of one request over `n` retrieval threads. */
  def splitEven(keys: Array[Long], n: Int): Seq[Array[Long]] = {
    val per = (keys.length + n - 1) / n
    keys.grouped(math.max(1, per)).toSeq
  }

  /** Milliseconds of each `SampleRegistry.lookup`, run one after another on
    * one connection.
    */
  def lookupMs(registry: SampleRegistry, requests: Seq[Array[Long]]): Seq[Double] = {
    val conn = registry.duplicateConnection()
    try requests.map { keys =>
      val t0    = System.nanoTime()
      val metas = registry.lookup(conn, keys)
      val ns    = System.nanoTime() - t0
      ensure(metas.length == keys.length, s"lookup of ${keys.length} keys returned ${metas.length}")
      ns / 1e6
    } finally conn.close()
  }

  /** Retrieve every share through the storage service, unparsed; returns
    * the payloads and the nanoseconds taken.
    */
  def retrieve(storage: StorageService, shares: Seq[Array[Long]],
               threads: Int): (Array[Array[Byte]], Long) = {
    val out = Array.newBuilder[Array[Byte]]
    val t0  = System.nanoTime()
    shares.filter(_.nonEmpty).foreach(s => storage.retrieve(s, threads).foreach(b => out ++= b.payloads))
    val ns = System.nanoTime() - t0
    (out.result(), ns)
  }

  /** Microseconds per sample of the bytes parser plus transform. */
  def parseUsPerSample(parser: BytesParser, transform: Transform,
                       payloads: Array[Array[Byte]]): Double = {
    var sink = 0.0
    val t0   = System.nanoTime()
    payloads.foreach(p => sink += transform(parser.parse(p))(0))
    val ns = System.nanoTime() - t0
    ensure(!sink.isNaN, "parsed features are not finite")
    ns / 1e3 / payloads.length
  }

  /** Request sizes of the lookup probe: one worker share of a 3 k
    * partition, a 3 k partition, and a 75 k partition.
    */
  val ProbeSizes: Seq[(Int, String)] = Seq(750 -> "750", 3000 -> "3k", 75000 -> "75k")

  /** `SampleRegistry.lookup` cost per request and per key at each probe
    * size, over a registry holding Criteo-lite's 300 k samples in
    * 1 800-sample files. Keys are drawn uniformly without replacement.
    */
  def lookupProbe(seed: Long): Map[String, Double] = {
    val numSamples = CriteoWorkload.NumSamples
    val perFile    = CriteoWorkload.SamplesPerFile
    val reg        = new SampleRegistry
    try {
      (0 until numSamples by perFile).zipWithIndex.foreach { case (start, f) =>
        val n = math.min(perFile, numSamples - start)
        reg.ingestPrecomputed(f"probe/criteo_$f%05d.bin", FileWrapperType.Binary(160),
          IndexedSeq.fill(n)(0L), i => (start + i).toLong)
      }
      val pool = Array.tabulate(numSamples)(i => i + 1L)
      val conn = reg.duplicateConnection()
      try ProbeSizes.flatMap { case (size, tag) =>
        val reps  = math.max(5, 60000 / size)
        val times = (0 until reps).map { r =>
          // Partial Fisher-Yates: the first `size` slots become the request.
          var i = 0
          while (i < size) {
            val j = i + Rng.int(Rng.mix2(seed, r.toLong * numSamples + i), numSamples - i)
            val t = pool(i); pool(i) = pool(j); pool(j) = t
            i += 1
          }
          val keys = java.util.Arrays.copyOf(pool, size)
          val t0   = System.nanoTime()
          val m    = reg.lookup(conn, keys)
          val ns   = System.nanoTime() - t0
          ensure(m.length == size, s"probe lookup of $size keys returned ${m.length}")
          ns.toDouble
        }
        val med = Stats.median(times)
        Seq(s"storage.probe_lookup_ms.$tag" -> med / 1e6,
          s"storage.probe_lookup_us_per_key.$tag" -> med / 1e3 / size)
      }.toMap
      finally conn.close()
    } finally reg.close()
  }
}

/** Batch-order digests by (workload, seed), kept in the output directory
  * so that a later run with the same seed must reproduce them.
  */
object DigestLog {
  def check(rc: RunContext, workload: String, digest: String): Unit = {
    val path = Paths.get(rc.outDir, "batch_order_digests.tsv")
    val key  = s"$workload\t${rc.seed}\t"
    val seen = if (Files.exists(path)) Files.readAllLines(path).asScala.find(_.startsWith(key)) else None
    seen match {
      case Some(line) =>
        ensure(line == key + digest,
          s"batch order digest $digest differs from an earlier run with the same seed (${line.drop(key.length)})")
      case None =>
        Files.write(path, (key + digest + "\n").getBytes("UTF-8"),
          StandardOpenOption.CREATE, StandardOpenOption.APPEND)
    }
  }
}
