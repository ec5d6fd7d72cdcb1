package perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.LongAdder
import repro.storage.FileSystemWrapper

/** Per-(directory class, operation) call, byte and time totals. */
final case class IoSnapshot(calls: Array[Long], bytes: Array[Long], nanos: Array[Long]) {
  import CountingFileSystemWrapper.idx
  def -(o: IoSnapshot): IoSnapshot = IoSnapshot(
    calls.indices.map(i => calls(i) - o.calls(i)).toArray,
    bytes.indices.map(i => bytes(i) - o.bytes(i)).toArray,
    nanos.indices.map(i => nanos(i) - o.nanos(i)).toArray)
  def count(cls: Int, ops: Int*): Long = ops.map(op => calls(idx(cls, op))).sum
  def byteCount(cls: Int, ops: Int*): Long = ops.map(op => bytes(idx(cls, op))).sum
  def millis(cls: Int, ops: Int*): Double = ops.map(op => nanos(idx(cls, op))).sum / 1e6
}

/** A [[FileSystemWrapper]] that forwards to `inner` and counts every call,
  * its bytes and its time, per directory class: the corpus (`dataDir`),
  * trigger sample storage, selector metadata, model storage, and other.
  * It is handed to the program through the public constructors of the
  * storage, selector and model-storage components, so the program itself
  * is unchanged. Write intervals into TSS files are kept so that the time
  * the parallel TSS writers occupy can be taken as a union.
  */
final class CountingFileSystemWrapper(inner: FileSystemWrapper, dataDir: String)
    extends FileSystemWrapper {
  import CountingFileSystemWrapper._

  private val dataPrefix = dataDir.stripSuffix("/") + "/"
  private val calls  = Array.fill(NumClasses * NumOps)(new LongAdder)
  private val bytes  = Array.fill(NumClasses * NumOps)(new LongAdder)
  private val nanos  = Array.fill(NumClasses * NumOps)(new LongAdder)
  private val tssWrites = new ConcurrentLinkedQueue[(Long, Long)]()

  def classOf(path: String): Int =
    if (path.startsWith(dataPrefix)) Data
    else if (path.contains("/tss/")) Tss
    else if (path.contains("/selector/")) Selector
    else if (path.contains("/models/")) Models
    else Other

  def snapshot(): IoSnapshot =
    IoSnapshot(calls.map(_.sum), bytes.map(_.sum), nanos.map(_.sum))

  /** TSS write intervals recorded since the last drain. */
  def drainTssWrites(): Seq[(Long, Long)] = {
    val out = Seq.newBuilder[(Long, Long)]
    var x = tssWrites.poll()
    while (x != null) { out += x; x = tssWrites.poll() }
    out.result()
  }

  private def count[A](path: String, op: Int, nBytes: A => Long)(body: => A): A = {
    val t0  = System.nanoTime()
    val r   = body
    val t1  = System.nanoTime()
    val cls = classOf(path)
    val i   = idx(cls, op)
    calls(i).increment(); nanos(i).add(t1 - t0); bytes(i).add(nBytes(r))
    if (cls == Tss && op == Write) tssWrites.add((t0, t1))
    r
  }

  override def read(path: String, offset: Long, length: Int): Array[Byte] =
    count(path, Read, (_: Array[Byte]) => length.toLong)(inner.read(path, offset, length))
  override def readAll(path: String): Array[Byte] =
    count(path, ReadAll, (b: Array[Byte]) => b.length.toLong)(inner.readAll(path))
  override def size(path: String): Long = count(path, Size, (_: Long) => 0L)(inner.size(path))
  override def write(path: String, data: Array[Byte]): Unit =
    count(path, Write, (_: Unit) => data.length.toLong)(inner.write(path, data))
  override def exists(path: String): Boolean =
    count(path, Exists, (_: Boolean) => 0L)(inner.exists(path))
  override def delete(path: String): Unit = count(path, Delete, (_: Unit) => 0L)(inner.delete(path))
  override def list(path: String): Seq[String] =
    count(path, List, (_: Seq[String]) => 0L)(inner.list(path))
}

object CountingFileSystemWrapper {
  val Data = 0; val Tss = 1; val Selector = 2; val Models = 3; val Other = 4
  val NumClasses = 5
  val Read = 0; val ReadAll = 1; val Size = 2; val Write = 3; val Exists = 4; val Delete = 5; val List = 6
  val NumOps = 7
  def idx(cls: Int, op: Int): Int = cls * NumOps + op
}
